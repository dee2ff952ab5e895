// The one JSON writer of the benches: build a report as a tree once, then
// print it and write it to a file in the same layout.
//
// Objects keep their keys in insertion order. Members and elements live in
// std::list, so a reference to one stays valid while its parent grows.
// Numbers are doubles (exact for counters below 2^53). They print with
// six decimals below 10 and one fewer per further digit, trailing zeros
// dropped and never with an exponent; NaN and infinities print as null.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <list>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace mtlsplit::bench {

class Json {
 public:
  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), num_(b ? 1.0 : 0.0) {}
  template <class T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  Json(T v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  /// An object literal: Json{{"key", value}, ...}.
  Json(std::initializer_list<std::pair<std::string, Json>> members)
      : kind_(Kind::kObject), members_(members) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  template <class Range>
  static Json array(const Range& values) {
    Json j = array();
    for (const auto& v : values) j.push(v);
    return j;
  }

  /// Object member @p key, appended as null when absent.
  Json& operator[](const std::string& key) {
    kind_ = Kind::kObject;
    for (auto& [k, v] : members_)
      if (k == key) return v;
    return members_.emplace_back(key, Json()).second;
  }
  /// Appends an array element.
  Json& push(Json v) {
    kind_ = Kind::kArray;
    return items_.emplace_back(std::move(v));
  }
  const std::list<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Reads back what was built: object member @p key (throws
  /// std::out_of_range when absent), the last array element, and a
  /// number's or bool's value (a bool reads as 1 or 0).
  const Json& at(const std::string& key) const {
    for (const auto& [k, v] : members_)
      if (k == key) return v;
    throw std::out_of_range("Json: no member \"" + key + "\"");
  }
  const Json& back() const { return items_.back(); }
  double num() const { return num_; }

  /// One line when @p indent < 0. Otherwise one line per object member,
  /// nested @p indent + 2 deeper, and one line per array element: an
  /// element prints as one compact row unless it holds a table (an array
  /// of containers) itself. An array of scalars prints on one line.
  std::string dump(int indent = -1) const {
    std::string out;
    dump_to(out, indent);
    return out;
  }

  bool write(const char* path) const {
    FILE* f = std::fopen(path, "w");
    if (!f) return false;
    const bool ok = std::fprintf(f, "%s\n", dump(0).c_str()) > 0;
    return std::fclose(f) == 0 && ok;
  }

  static std::string number(double d) {
    if (!std::isfinite(d)) return "null";
    char buf[400];
    int decimals = 6;
    for (double m = std::fabs(d); m >= 10.0 && decimals > 0; m /= 10.0)
      --decimals;
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, d);
    std::string s = buf;
    if (s.find('.') != std::string::npos) {
      while (s.back() == '0') s.pop_back();
      if (s.back() == '.') s.pop_back();
    }
    return s;
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  bool container() const {
    return kind_ == Kind::kArray || kind_ == Kind::kObject;
  }
  bool holds_table() const {
    for (const Json& v : items_)
      if (v.container()) return true;
    for (const auto& [k, v] : members_)
      if (v.holds_table()) return true;
    return false;
  }

  /// Bench strings are labels: only quotes and backslashes need escaping.
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  }

  void dump_to(std::string& out, int indent) const {
    switch (kind_) {
      case Kind::kNull: out += "null"; return;
      case Kind::kBool: out += num_ != 0.0 ? "true" : "false"; return;
      case Kind::kNumber: out += number(num_); return;
      case Kind::kString: out += quote(str_); return;
      case Kind::kArray:
      case Kind::kObject: break;
    }
    const bool object = kind_ == Kind::kObject;
    const bool flat =
        indent < 0 || (object ? members_.empty()
                              : std::none_of(items_.begin(), items_.end(),
                                             [](const Json& j) {
                                               return j.container();
                                             }));
    const std::string pad = flat ? "" : "\n" + std::string(indent + 2, ' ');
    out += object ? '{' : '[';
    bool first = true;
    auto emit = [&](const std::string* key, const Json& v) {
      out += first ? "" : (flat ? ", " : ",");
      first = false;
      out += pad;
      if (key) out += quote(*key) + ": ";
      v.dump_to(out, !flat && (key || v.holds_table()) ? indent + 2 : -1);
    };
    for (const auto& [k, v] : members_) emit(&k, v);
    for (const Json& v : items_) emit(nullptr, v);
    if (!flat) out += "\n" + std::string(indent, ' ');
    out += object ? '}' : ']';
  }

  Kind kind_ = Kind::kNull;
  double num_ = 0.0;
  std::string str_;
  std::list<std::pair<std::string, Json>> members_;
  std::list<Json> items_;
};

}  // namespace mtlsplit::bench
