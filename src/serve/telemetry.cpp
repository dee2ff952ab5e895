#include "serve/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string_view>
#include <vector>

#include "tensor/check.hpp"

namespace mtlsplit::telemetry {
namespace {

bool valid_segment_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

void validate_path(const std::string& path) {
  check_arg(!path.empty(), "telemetry: empty metric path");
  size_t seg_len = 0;
  for (char c : path) {
    if (c == '/') {
      check_arg(seg_len > 0, "telemetry: empty segment in path '", path,
                "'");
      seg_len = 0;
    } else {
      check_arg(valid_segment_char(c), "telemetry: invalid character '", c,
                "' in path '", path, "'");
      ++seg_len;
    }
  }
  check_arg(seg_len > 0, "telemetry: empty segment in path '", path, "'");
}

void append_int(std::string& out, int64_t v) { out += std::to_string(v); }

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_hist(std::string& out, const Histogram& h) {
  const HistSnapshot s = h.snapshot();
  out += "{\"count\":";
  append_int(out, s.count);
  out += ",\"mean\":";
  append_double(out, s.mean());
  out += ",\"p50\":";
  append_double(out, s.p50());
  out += ",\"p95\":";
  append_double(out, s.p95());
  out += ",\"p99\":";
  append_double(out, s.p99());
  out += ",\"max\":";
  append_double(out, s.max);
  out += "}";
}

/// The child-name span of @p key at @p depth: [depth, next '/' or end).
std::string_view segment_at(const std::string& key, size_t depth) {
  const size_t slash = key.find('/', depth);
  const size_t end = slash == std::string::npos ? key.size() : slash;
  return std::string_view(key).substr(depth, end - depth);
}

}  // namespace

Registry::Entry& Registry::entry_locked(const std::string& path, Kind kind) {
  auto it = entries_.find(path);
  if (it != entries_.end()) {
    check_arg(it->second.kind == kind, "telemetry: '", path,
              "' already registered as a different metric kind");
    return it->second;
  }
  validate_path(path);
  // A path is either a leaf or an interior node, never both: reject when an
  // existing metric sits on a strict prefix of this path...
  for (size_t pos = path.find('/'); pos != std::string::npos;
       pos = path.find('/', pos + 1)) {
    check_arg(entries_.find(path.substr(0, pos)) == entries_.end(),
              "telemetry: '", path,
              "' collides with existing metric at a prefix");
  }
  // ...or when this path is a strict prefix of an existing metric.
  const std::string subtree = path + "/";
  auto below = entries_.lower_bound(subtree);
  check_arg(below == entries_.end() ||
                below->first.compare(0, subtree.size(), subtree) != 0,
            "telemetry: '", path,
            "' names an interior node of existing metrics");

  Entry e;
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      e.c = &counters_.emplace_back();
      break;
    case Kind::kGauge:
      e.g = &gauges_.emplace_back();
      break;
    case Kind::kHistogram:
      e.h = &histograms_.emplace_back();
      break;
  }
  return entries_.emplace(path, e).first->second;
}

Counter& Registry::counter(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  return *entry_locked(path, Kind::kCounter).c;
}

Gauge& Registry::gauge(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  return *entry_locked(path, Kind::kGauge).g;
}

Histogram& Registry::histogram(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  return *entry_locked(path, Kind::kHistogram).h;
}

const Registry::Entry* Registry::find_locked(const std::string& path,
                                             Kind kind) const {
  auto it = entries_.find(path);
  if (it == entries_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

const Counter* Registry::find_counter(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Entry* e = find_locked(path, Kind::kCounter);
  return e ? e->c : nullptr;
}

const Gauge* Registry::find_gauge(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Entry* e = find_locked(path, Kind::kGauge);
  return e ? e->g : nullptr;
}

const Histogram* Registry::find_histogram(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Entry* e = find_locked(path, Kind::kHistogram);
  return e ? e->h : nullptr;
}

int64_t Registry::counter_value(const std::string& path) const {
  const Counter* c = find_counter(path);
  check_arg(c != nullptr, "telemetry: no counter at '", path, "'");
  return c->value();
}

double Registry::gauge_value(const std::string& path) const {
  const Gauge* g = find_gauge(path);
  check_arg(g != nullptr, "telemetry: no gauge at '", path, "'");
  return g->value();
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

void Registry::render(Map::const_iterator begin, Map::const_iterator end,
                      size_t depth, std::string& out) const {
  // Group the sorted key range by the child name at this depth. Keys
  // sharing a child are contiguous, so one linear sweep suffices.
  struct Child {
    std::string_view name;
    Map::const_iterator begin, end;
    bool leaf;
  };
  std::vector<Child> children;
  for (auto it = begin; it != end;) {
    const std::string_view name = segment_at(it->first, depth);
    auto run = it;
    while (run != end && segment_at(run->first, depth) == name) ++run;
    // Leaf iff the first key of the run terminates here; leaf/interior
    // conflicts are rejected at registration, so the run is homogeneous.
    children.push_back({name, it, run, depth + name.size() == it->first.size()});
    it = run;
  }

  // Consecutive integer-named counter leaves "0".."n-1" render as a JSON
  // array so bucketed histograms stay compact.
  bool as_array = !children.empty();
  for (const Child& ch : children) {
    if (!ch.leaf || ch.begin->second.kind != Kind::kCounter ||
        ch.name.empty() ||
        !std::all_of(ch.name.begin(), ch.name.end(), [](char c) {
          return c >= '0' && c <= '9';
        })) {
      as_array = false;
      break;
    }
  }
  if (as_array) {
    std::vector<int64_t> values(children.size(), 0);
    for (const Child& ch : children) {
      size_t idx = 0;
      for (char c : ch.name) idx = idx * 10 + static_cast<size_t>(c - '0');
      if (idx >= children.size() || std::to_string(idx) != ch.name) {
        as_array = false;  // not a dense 0..n-1 range (gaps or "07")
        break;
      }
      values[idx] = ch.begin->second.c->value();
    }
    if (as_array) {
      out += "[";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i) out += ",";
        append_int(out, values[i]);
      }
      out += "]";
      return;
    }
  }

  out += "{";
  bool first = true;
  for (const Child& ch : children) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out.append(ch.name.data(), ch.name.size());
    out += "\":";
    if (ch.leaf) {
      const Entry& e = ch.begin->second;
      switch (e.kind) {
        case Kind::kCounter:
          append_int(out, e.c->value());
          break;
        case Kind::kGauge:
          append_double(out, e.g->value());
          break;
        case Kind::kHistogram:
          append_hist(out, *e.h);
          break;
      }
    } else {
      render(ch.begin, ch.end, depth + ch.name.size() + 1, out);
    }
  }
  out += "}";
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (entries_.empty()) return "{}";
  std::string out;
  out.reserve(64 * entries_.size());
  render(entries_.begin(), entries_.end(), 0, out);
  return out;
}

Registry& global() {
  static Registry g;
  return g;
}

}  // namespace mtlsplit::telemetry
