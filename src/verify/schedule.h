// Schedule vocabulary of the model checker (src/verify).
//
// A schedule is a sequence of Actions, each one choice the explorer made at
// a choice point: deliver the head flight of one (src,dst) channel, let a
// site leave the CS, deliver one failure notice, or crash a site. Replaying
// the same action sequence on a fresh World reconstructs the exact same
// state — the simulator is deterministic and the controlled Network never
// samples its delay model — which is what makes a path (not a stored
// state) the explorer's identity for a node, a parallel task and a
// frontier entry, and every counterexample a small replayable artifact.
//
// The text encoding ("d 0 2;x 1;c 2;n 2 0") and the one-object JSON file
// format are deliberately trivial: tools/dqme_sim re-reads them with the
// same line-based field scanner used elsewhere in tools/, no JSON library
// involved.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "mutex/factory.h"

namespace dqme::verify {

enum class ActionKind : uint8_t {
  kDeliver,  // deliver the head flight of channel (a -> b)
  kExit,     // site `a` leaves the CS (and reissues if it wants more)
  kNotice,   // deliver the failure notice about `a` to site `b`
  kCrash,    // site `a` fails silently
};

struct Action {
  ActionKind kind = ActionKind::kDeliver;
  SiteId a = kNoSite;
  SiteId b = kNoSite;

  friend bool operator==(const Action& x, const Action& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b;
  }
};

std::string to_string(const Action& a);

// Which partial-order reduction the explorer runs.
//
// kSleep is the original conservative relation: every action except kCrash
// touches exactly one site, and kCrash is dependent with *everything* —
// sound, but every crash choice point multiplies the whole remaining space.
//
// kSource refines the relation to the actual dependencies ("source sets",
// docs/VERIFICATION.md §source-set-DPOR): a crash of site v conflicts only
// with actions on v's locality — deliveries on a channel into or out of v
// (crash sweeps those parked flights), v's own CS exit, failure notices
// about v or addressed to v, and other crashes (they share the per-schedule
// crash budget). Everything else commutes with the crash, so the crash
// point slides freely across unrelated deliveries instead of forking the
// space at every depth. Deliveries/exits/notices keep the same-site
// relation: two actions running the same site's handler never commute.
enum class Dpor : uint8_t {
  kSleep,   // touched-site relation, crash dependent with all
  kSource,  // refined per-kind relation (crash only on its locality)
};

std::string_view to_string(Dpor d);
Dpor dpor_from_string(const std::string& name);

// The dependence relation the reduction is built on. Every action except
// kCrash affects exactly one site's protocol state: a delivery runs the
// destination's handler, an exit/notice runs its own site's. Two actions
// on different sites commute — neither can see the other's effect before a
// later (dependent) action links them — so schedules differing only in
// their order reach the same state. kCrash reshapes the enabled set of the
// victim's channels; under kSleep it is treated as dependent with
// everything, under kSource only with actions touching the victim.
// docs/VERIFICATION.md states the argument.
SiteId touched_site(const Action& a);
bool independent(const Action& x, const Action& y);  // kSleep relation
bool independent(const Action& x, const Action& y, Dpor mode);

// Seeded faults for the negative tests: each one breaks a different
// invariant, and the explorer must find a schedule exposing it.
enum class Mutation : uint8_t {
  kNone,
  kDoubleGrant,    // an arbiter wire-grants a second site without unlocking
  kLostTransfer,   // first transfer vanishes, then its holder's release too
  kFifoInversion,  // one delivery jumps its channel's queue
  // Naimi–Thiaré-style deadlock seeding: every inquire vanishes, so the
  // §4 deadlock-avoidance dance never runs. The explorer must then find
  // the crossed-grant request ordering (each arbiter locked by a different
  // requester, no site completing its quorum) that the inquire/yield
  // machinery exists to break — a circular wait, reported as stalled
  // requests at quiescence.
  kDeadlockOrdering,
};

std::string_view to_string(Mutation m);
Mutation mutation_from_string(const std::string& name);

// Everything needed to rebuild a World from scratch; serialized into every
// schedule file so a counterexample replays without the original command
// line.
struct WorldConfig {
  mutex::Algo algo = mutex::Algo::kCaoSinghal;
  int n = 3;
  std::string quorum = "grid";
  int cs_per_site = 2;
  bool fault_tolerant = false;
  std::vector<SiteId> crash_sites;  // candidate victims for kCrash branching
  int max_crashes = 0;              // crash actions allowed per schedule
  Mutation mutation = Mutation::kNone;
  // Lock-table size for the sites (mutex::AlgoOptions::num_locks). The
  // explorer only drives lock 0 — extra locks sit idle, which is exactly
  // what the lock-table isolation test asserts: schedules over lock 0 are
  // unchanged by the table's existence.
  LockId num_locks = 1;

  friend bool operator==(const WorldConfig&, const WorldConfig&) = default;
};

// "d 0 2;x 1" <-> actions. decode returns false on malformed input.
std::string encode_actions(const std::vector<Action>& actions);
bool decode_actions(const std::string& text, std::vector<Action>& out);

// Field scanners over this module's own writer output (same line-based
// discipline as tools/dqme_check): keys unique, values escape-free.
bool json_field_str(const std::string& text, const std::string& key,
                    std::string& out);
bool json_field_num(const std::string& text, const std::string& key,
                    long& out);

// The WorldConfig <-> JSON fragment used by both the schedule files and
// the explorer's frontier files: `"algo":"cao-singhal","n":3,...` (compact,
// no surrounding braces).
void write_config_fields(std::ostream& os, const WorldConfig& cfg);
bool read_config_fields(const std::string& text, WorldConfig& cfg,
                        std::string* error);

// One-object JSON: {"dqme_schedule":1, config fields, "actions":"...",
// "reports":[...]}. Reports are carried for humans; replay recomputes them.
void write_schedule(std::ostream& os, const WorldConfig& cfg,
                    const std::vector<Action>& actions,
                    const std::vector<std::string>& reports);
bool read_schedule(std::istream& is, WorldConfig& cfg,
                   std::vector<Action>& actions, std::string* error);

}  // namespace dqme::verify
