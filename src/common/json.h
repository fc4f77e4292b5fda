// The one JSON string escaper, and the field scanners that read this
// repo's own JSON back. Every JSON artifact — registries, Chrome traces,
// timelines, flight-recorder dumps, schedules, tool and bench reports —
// quotes its strings through json_string, so writers and the goldens they
// are compared against share one escaping rule: '"' and '\' get a
// backslash, every other byte passes through.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace dqme {

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

// Field scanners over the writers' line-oriented output: the first
// `"key":` in `text`, its value parsed. Keys are unique per line.
inline bool json_field_str(const std::string& text, const std::string& key,
                           std::string& out) {
  const std::string pat = "\"" + key + "\":";
  size_t p = text.find(pat);
  if (p == std::string::npos) return false;
  p += pat.size();
  while (p < text.size() && text[p] == ' ') ++p;
  if (p >= text.size() || text[p] != '"') return false;
  ++p;
  out.clear();
  while (p < text.size() && text[p] != '"') {
    if (text[p] == '\\' && p + 1 < text.size()) ++p;
    out += text[p++];
  }
  return p < text.size();
}

inline bool json_field_num(const std::string& text, const std::string& key,
                           long& out) {
  const std::string pat = "\"" + key + "\":";
  size_t p = text.find(pat);
  if (p == std::string::npos) return false;
  p += pat.size();
  while (p < text.size() && text[p] == ' ') ++p;
  std::istringstream num(text.substr(p, 24));
  return static_cast<bool>(num >> out);
}

}  // namespace dqme
