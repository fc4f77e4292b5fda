// One command-line grammar for every tool and bench.
//
// A Table maps flag names to handlers and generates --help from the same
// entries, so the usage text cannot drift from what a tool accepts:
//
//   --flag VALUE, --flag=VALUE   value flags
//   --flag[=VALUE]               optional-value flags (the = form only)
//   --flag                       booleans (a =VALUE is an error)
//
// Numbers parse strictly: the whole token, in range for the target type,
// and within the flag's minimum and maximum (a maximum caps flags that
// start one OS thread per unit). Malformed or unknown input throws
// UsageError; parse_or_exit turns that into a message and exit status 2,
// and --help (or -h) into the usage text and exit status 0.
#pragma once

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dqme::flags {

// Malformed, out-of-range or unknown command-line input.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

// Parses the whole of `text` as a T in [min, max]; throws UsageError
// naming `what` otherwise. Floating-point values must be finite.
template <class T>
T parse_number(std::string_view text, std::string_view what,
               T min = std::numeric_limits<T>::lowest(),
               T max = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc() && p == end && !text.empty();
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  std::ostringstream os;
  if (!ok)
    os << what << ": '" << text << "' is not a valid number";
  else if (v < min)
    os << what << " must be >= " << +min << ", got " << text;
  else if (v > max)
    os << what << " must be <= " << +max << ", got " << text;
  else
    return v;
  throw UsageError(os.str());
}

// The error text for an argument no table entry claims.
std::string unknown_argument(const std::string& arg);

// Reports bad input the way every tool does — "PROGRAM: why" plus a
// pointer to --help on stderr — and exits 2.
[[noreturn]] void fail(const std::string& program, const std::string& why);

class Table {
 public:
  using Handler = std::function<void(const std::string&)>;

  // `synopsis` follows the program name in the usage line.
  explicit Table(std::string program, std::string synopsis = "[options]")
      : program_(program.substr(program.rfind('/') + 1)),  // npos + 1 == 0
        synopsis_(std::move(synopsis)) {}

  // --name (a boolean).
  Table& flag(std::string name, std::string help, std::function<void()> on) {
    return add({Kind::kBool, std::move(name), "", std::move(help),
                [on = std::move(on)](const std::string&) { on(); }});
  }
  Table& flag(std::string name, std::string help, bool& dst) {
    return flag(std::move(name), std::move(help), [&dst] { dst = true; });
  }
  // --name VALUE and --name=VALUE.
  Table& value(std::string name, std::string metavar, std::string help,
               Handler on) {
    return add({Kind::kValue, std::move(name), std::move(metavar),
                std::move(help), std::move(on)});
  }
  // A non-empty string value.
  Table& text(std::string name, std::string metavar, std::string help,
              std::string& dst);
  // One of `names`; `on` receives its index.
  Table& choice(std::string name, std::string metavar, std::string help,
                std::vector<std::string> names,
                std::function<void(size_t)> on);
  // A strictly parsed number in [min, max]; --help prints a maximum.
  template <class T>
  Table& number(std::string name, std::string metavar, std::string help,
                T& dst, T min = std::numeric_limits<T>::lowest(),
                T max = std::numeric_limits<T>::max()) {
    if (max != std::numeric_limits<T>::max()) {
      std::ostringstream os;
      os << " (at most " << +max << ")";
      help += os.str();
    }
    return value(name, std::move(metavar), std::move(help),
                 [&dst, min, max, name](const std::string& v) {
                   dst = parse_number<T>(v, name, min, max);
                 });
  }
  // --name or --name=VALUE: sets `given`, and `dst` to VALUE ("" when
  // bare).
  Table& optional(std::string name, std::string metavar, std::string help,
                  bool& given, std::string& dst);
  // Free text printed after the entries.
  Table& epilog(std::string text) {
    epilog_ = std::move(text);
    return *this;
  }

  // True when `arg` ("--name" or "--name=VALUE") names a flag.
  bool has(std::string_view arg) const;

  // Runs the handlers in command-line order. Arguments no entry claims are
  // returned when `pass_through`, and rejected otherwise. Throws UsageError
  // on bad input and HelpRequested on --help.
  struct HelpRequested {};
  std::vector<std::string> parse(int argc, const char* const* argv,
                                 bool pass_through = false) const;
  // parse() for a tool's main: --help prints the usage and exits 0, bad
  // input prints the error and exits 2.
  std::vector<std::string> parse_or_exit(int argc, char** argv,
                                         bool pass_through = false) const;
  [[noreturn]] void fail(const std::string& why) const {
    flags::fail(program_, why);
  }

  // The usage text; entries() lists the entries alone, leaving out the
  // flags `skip` also has.
  void usage(std::ostream& os) const;
  void entries(std::ostream& os, const Table* skip = nullptr) const;

 private:
  enum class Kind { kBool, kValue, kOptional };
  struct Entry {
    Kind kind;
    std::string name;
    std::string metavar;
    std::string help;
    Handler on;
  };
  Table& add(Entry e);
  const Entry* find(std::string_view name) const;

  std::string program_;
  std::string synopsis_;
  std::string epilog_;
  std::vector<Entry> entries_;
};

}  // namespace dqme::flags
