// Test oracles for JSON text the library writes with json::Writer.
//
// dump_reference and dump_canonical are a tree serializer that
// shares no code with json::Writer: a byte-at-a-time escaper,
// std::to_string integers and, for dump_canonical, each object's
// members sorted by key at every level while it writes (the form of a
// canonical key). Writer output must equal them byte for byte; a
// canonical key written in sorted order must equal dump_canonical of
// its own parse.
//
// first_duplicate_key scans JSON text for an object that names the
// same key twice. json::Writer never checks its callers, and parse()
// keeps one of two equal keys, so a repeat is invisible after parsing;
// the scan reads the text itself.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace repro::json::test {

inline void reference_escape(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xf]);
          out.push_back(hex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

inline void reference_dump_to(std::string& out, const Value& v,
                              bool canonical) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      return;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case Value::Type::kInt:
      out += std::to_string(v.as_int());
      return;
    case Value::Type::kDouble: {
      const double d = v.as_double();
      char buf[32];
      const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), d);
      if (std::isfinite(d) && ec == std::errc()) {
        out.append(buf, p);
      } else {
        out += "null";
      }
      return;
    }
    case Value::Type::kString:
      reference_escape(out, v.as_string());
      return;
    case Value::Type::kArray:
      out.push_back('[');
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (i > 0) out.push_back(',');
        reference_dump_to(out, v.items()[i], canonical);
      }
      out.push_back(']');
      return;
    case Value::Type::kObject: {
      std::vector<const Member*> members;
      for (const Member& m : v.members()) members.push_back(&m);
      if (canonical) {
        std::sort(members.begin(), members.end(),
                  [](const Member* a, const Member* b) {
                    return a->first < b->first;
                  });
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out.push_back(',');
        reference_escape(out, members[i]->first);
        out.push_back(':');
        reference_dump_to(out, members[i]->second, canonical);
      }
      out.push_back('}');
      return;
    }
  }
}

// Members in insertion order, as Value::dump writes them.
inline std::string dump_reference(const Value& v) {
  std::string out;
  reference_dump_to(out, v, /*canonical=*/false);
  return out;
}

// Members sorted by key at every level.
inline std::string dump_canonical(const Value& v) {
  std::string out;
  reference_dump_to(out, v, /*canonical=*/true);
  return out;
}

// The first key that some object in `text` (well-formed JSON, compact
// or spaced) names twice; nullopt when every object's keys are
// distinct. Keys compare in their escaped spelling, which the Writer
// makes unique.
inline std::optional<std::string> first_duplicate_key(std::string_view text) {
  // One key set per open object or array (an array's stays empty).
  std::vector<std::set<std::string, std::less<>>> open;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{' || c == '[') {
      open.emplace_back();
    } else if (c == '}' || c == ']') {
      open.pop_back();
    } else if (c == '"') {
      const std::size_t start = ++i;
      while (text[i] != '"') i += text[i] == '\\' ? 2 : 1;
      const std::string_view str = text.substr(start, i - start);
      std::size_t next = i + 1;
      while (next < text.size() && (text[next] == ' ' || text[next] == '\n')) {
        ++next;
      }
      // A string followed by ':' is a member key.
      if (next < text.size() && text[next] == ':' &&
          !open.back().emplace(str).second) {
        return std::string(str);
      }
    }
  }
  return std::nullopt;
}

}  // namespace repro::json::test
