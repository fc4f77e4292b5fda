#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

namespace dqme::flags {

namespace {

constexpr size_t kHelpColumn = 19;

std::string_view name_of(std::string_view arg) {
  return arg.substr(0, arg.find('='));
}

}  // namespace

std::string unknown_argument(const std::string& arg) {
  return (arg.rfind('-', 0) == 0 ? "unknown option: "
                                 : "unexpected argument: ") +
         arg;
}

void fail(const std::string& program, const std::string& why) {
  std::cerr << program << ": " << why << "\n(" << program
            << " --help lists the options)\n";
  std::exit(2);
}

Table& Table::add(Entry e) {
  if (find(e.name) != nullptr)
    throw std::logic_error("flag registered twice: " + e.name);
  entries_.push_back(std::move(e));
  return *this;
}

Table& Table::text(std::string name, std::string metavar, std::string help,
                   std::string& dst) {
  return value(name, std::move(metavar), std::move(help),
               [&dst, name](const std::string& v) {
                 if (v.empty()) throw UsageError(name + " needs a value");
                 dst = v;
               });
}

Table& Table::choice(std::string name, std::string metavar,
                     std::string help, std::vector<std::string> names,
                     std::function<void(size_t)> on) {
  return value(name, std::move(metavar), std::move(help),
               [name, names, on](const std::string& v) {
                 const auto it = std::find(names.begin(), names.end(), v);
                 if (it != names.end()) return on(it - names.begin());
                 std::string all;
                 for (const std::string& n : names)
                   all += (all.empty() ? "" : " | ") + n;
                 throw UsageError(name + ": unknown value '" + v + "' (" +
                                  all + ")");
               });
}

Table& Table::optional(std::string name, std::string metavar,
                       std::string help, bool& given, std::string& dst) {
  return add({Kind::kOptional, std::move(name), std::move(metavar),
              std::move(help), [&given, &dst](const std::string& v) {
                given = true;
                dst = v;
              }});
}

const Table::Entry* Table::find(std::string_view name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

bool Table::has(std::string_view arg) const {
  return find(name_of(arg)) != nullptr;
}

std::vector<std::string> Table::parse(int argc, const char* const* argv,
                                      bool pass_through) const {
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") throw HelpRequested{};
    const Entry* e = arg.rfind("--", 0) == 0 ? find(name_of(arg)) : nullptr;
    if (e == nullptr) {
      if (!pass_through) throw UsageError(unknown_argument(arg));
      rest.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (e->kind == Kind::kBool && eq != std::string::npos)
      throw UsageError(e->name + " takes no value");
    if (eq != std::string::npos)
      e->on(arg.substr(eq + 1));
    else if (e->kind != Kind::kValue)
      e->on("");
    else if (i + 1 < argc)
      e->on(argv[++i]);
    else
      throw UsageError("missing value for " + e->name);
  }
  return rest;
}

std::vector<std::string> Table::parse_or_exit(int argc, char** argv,
                                              bool pass_through) const {
  try {
    return parse(argc, argv, pass_through);
  } catch (const HelpRequested&) {
    usage(std::cout);
    std::exit(0);
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

void Table::usage(std::ostream& os) const {
  os << "usage: " << program_ << " " << synopsis_ << "\n";
  entries(os);
  os << "  --help" << std::string(kHelpColumn - 8, ' ')
     << "print this help and exit\n"
     << epilog_;
}

void Table::entries(std::ostream& os, const Table* skip) const {
  for (const Entry& e : entries_) {
    if (skip != nullptr && skip->has(e.name)) continue;
    std::string lead = "  " + e.name;
    if (e.kind == Kind::kValue) lead += " " + e.metavar;
    if (e.kind == Kind::kOptional) lead += "[=" + e.metavar + "]";
    // Continuation lines ('\n' in the help) align in the help column.
    std::string_view help = e.help;
    for (size_t nl = 0; nl != std::string_view::npos; lead.clear()) {
      nl = help.find('\n');
      const size_t pad = lead.size() + 2 <= kHelpColumn
                             ? kHelpColumn - lead.size()
                             : 2;
      os << lead << std::string(pad, ' ') << help.substr(0, nl) << "\n";
      help.remove_prefix(nl == std::string_view::npos ? 0 : nl + 1);
    }
  }
}

}  // namespace dqme::flags
