#include "harness/deployment.h"

#include "common/check.h"
#include "quorum/factory.h"

namespace dqme::harness {

Deployment::Deployment(mutex::Algo algo, int n, const std::string& quorum,
                       const mutex::AlgoOptions& options,
                       net::Executor& exec)
    : algo_(algo) {
  if (mutex::algo_uses_quorum(algo))
    quorums_ = quorum::make_quorum_system(quorum, n);
  owned_.reserve(site_count(n));
  sites_.reserve(site_count(n));
  for (SiteId id = 0; id < n; ++id) {
    owned_.push_back(
        mutex::make_site(algo, id, exec, quorums_.get(), options));
    sites_.push_back(owned_.back().get());
    exec.attach(id, sites_.back());
  }
}

Deployment::Totals Deployment::totals() const {
  Totals t;
  for (const mutex::MutexSite* s : sites_) {
    t.cs_entries += s->cs_entries();
    t.stale_drops += s->stale_drops();
    const auto* cs = dynamic_cast<const core::CaoSinghalSite*>(s);
    if (cs == nullptr) continue;
    const auto& c = cs->case_stats();
    t.case_stats.grant_free += c.grant_free;
    t.case_stats.c1_empty_higher += c.c1_empty_higher;
    t.case_stats.c2_empty_lower += c.c2_empty_lower;
    t.case_stats.c3_fail_newcomer += c.c3_fail_newcomer;
    t.case_stats.c4_displace_head += c.c4_displace_head;
    t.case_stats.c5_beats_lock += c.c5_beats_lock;
    t.case_stats.c6_between += c.c6_between;
    const auto& p = cs->protocol_stats();
    t.protocol_stats.yields_sent += p.yields_sent;
    t.protocol_stats.inquires_deferred += p.inquires_deferred;
    t.protocol_stats.transfers_accepted += p.transfers_accepted;
    t.protocol_stats.transfers_ignored += p.transfers_ignored;
    t.protocol_stats.replies_forwarded += p.replies_forwarded;
    t.protocol_stats.replies_direct += p.replies_direct;
    t.protocol_stats.recoveries += p.recoveries;
  }
  return t;
}

}  // namespace dqme::harness
