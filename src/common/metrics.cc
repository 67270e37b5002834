#include "common/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace od {
namespace common {

namespace metrics_internal {

uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace metrics_internal

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string FormatLabel(const std::string& key, const std::string& value) {
  return key + "=\"" + EscapeLabelValue(value) + "\"";
}

void AppendJsonString(std::string_view value, std::string* out) {
  out->push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// ---------------------------------------------------------------------------
// Histogram

namespace {

/// Smallest i with v <= 2^i, clamped to the bucket range; v <= 1 -> 0.
int BucketIndex(int64_t v) {
  if (v <= 1) return 0;
  // bit_width(v - 1): index of the highest set bit of v-1, plus one.
  const uint64_t x = static_cast<uint64_t>(v - 1);
  const int width = 64 - __builtin_clzll(x);
  return width >= Histogram::kBuckets - 1 ? Histogram::kBuckets - 1 : width;
}

}  // namespace

void Histogram::Record(int64_t v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::BucketUpperBound(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);  // 2^i
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot h;
  h.sum = Sum();
  int highest = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (BucketCount(i) > 0) highest = i;
  }
  int64_t cumulative = 0;
  for (int i = 0; i <= highest; ++i) {
    cumulative += BucketCount(i);
    h.buckets.emplace_back(BucketUpperBound(i), cumulative);
  }
  // The +Inf bucket always closes the list (Prometheus requires it).
  if (highest < kBuckets - 1) {
    cumulative += BucketCount(kBuckets - 1);
    h.buckets.emplace_back(std::numeric_limits<double>::infinity(),
                           cumulative);
  }
  h.count = cumulative;
  return h;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count <= 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  // The highest finite bound caps what the +Inf bucket can report — the
  // data gives no information past it.
  double highest_finite = 0.0;
  for (const auto& [le, cumulative] : buckets) {
    if (!std::isinf(le)) highest_finite = le;
  }
  double prev_le = 0.0;
  int64_t prev_cumulative = 0;
  for (const auto& [le, cumulative] : buckets) {
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      if (std::isinf(le)) return highest_finite;
      const int64_t in_bucket = cumulative - prev_cumulative;
      if (in_bucket <= 0) return le;  // unreachable; belt and braces
      // Linear interpolation inside (prev_le, le] by rank.
      const double frac =
          (target - static_cast<double>(prev_cumulative)) /
          static_cast<double>(in_bucket);
      return prev_le + (le - prev_le) * (frac < 0.0 ? 0.0 : frac);
    }
    prev_le = le;
    prev_cumulative = cumulative;
  }
  return highest_finite;
}

// ---------------------------------------------------------------------------
// Registry

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

namespace {

std::string FullKey(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

}  // namespace

MetricRegistry::Entry& MetricRegistry::FindOrCreate(
    Entry::Kind kind, const std::string& name, const std::string& help,
    const std::string& labels) {
  const std::string key = FullKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.kind != kind) {
      throw std::invalid_argument("MetricRegistry: '" + key +
                                  "' already registered with another type");
    }
    return e;
  }
  Entry e;
  e.kind = kind;
  e.name = name;
  e.help = help;
  e.labels = labels;
  switch (kind) {
    case Entry::Kind::kCounter: e.counter = new Counter(); break;
    case Entry::Kind::kGauge: e.gauge = new Gauge(); break;
    case Entry::Kind::kHistogram: e.histogram = new Histogram(); break;
  }
  index_[key] = entries_.size();
  entries_.push_back(std::move(e));
  return entries_.back();
}

Counter& MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    const std::string& labels) {
  return *FindOrCreate(Entry::Kind::kCounter, name, help, labels).counter;
}

Gauge& MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help,
                                const std::string& labels) {
  return *FindOrCreate(Entry::Kind::kGauge, name, help, labels).gauge;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        const std::string& labels) {
  return *FindOrCreate(Entry::Kind::kHistogram, name, help, labels).histogram;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const Entry& e : entries_) {
    const std::string key = FullKey(e.name, e.labels);
    switch (e.kind) {
      case Entry::Kind::kCounter:
        snap.counters[key] = e.counter->Value();
        break;
      case Entry::Kind::kGauge:
        snap.gauges[key] = e.gauge->Value();
        break;
      case Entry::Kind::kHistogram:
        snap.histograms[key] = e.histogram->Snapshot();
        break;
    }
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Prometheus text. The emitted grammar is deliberately tiny (TYPE lines,
// int64 samples, one histogram series shape), so the parser below can be
// its exact inverse.

namespace {

[[noreturn]] void ParseError(const std::string& why) {
  throw std::invalid_argument("metrics parse error: " + why);
}

/// The position of the first `target` in `s` at or after `from` that lies
/// outside a quoted label value (escaped quotes and backslashes inside a
/// value are skipped), or npos.
size_t FindUnquoted(const std::string& s, size_t from, char target) {
  bool in_quotes = false;
  for (size_t i = from; i < s.size(); ++i) {
    const char ch = s[i];
    if (in_quotes) {
      if (ch == '\\') {
        ++i;  // skip the escaped character
      } else if (ch == '"') {
        in_quotes = false;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == target) {
      return i;
    }
  }
  return std::string::npos;
}

/// Splits "name{labels}" into its parts; labels comes back empty when the
/// key has none. The label body ends at the first `}` outside a quoted
/// value, and the key must end there: an unclosed body, or bytes after it,
/// throw std::invalid_argument.
void SplitKey(const std::string& key, std::string* name,
              std::string* labels) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *name = key;
    labels->clear();
    return;
  }
  const size_t close = FindUnquoted(key, brace + 1, '}');
  if (close != key.size() - 1) {
    ParseError("label body of '" + key + "' is unclosed or followed by bytes");
  }
  *name = key.substr(0, brace);
  *labels = key.substr(brace + 1, close - brace - 1);
}

std::string PromKey(const std::string& name, const std::string& suffix,
                    const std::string& labels,
                    const std::string& extra_label = "") {
  std::string body = labels;
  if (!extra_label.empty()) {
    if (!body.empty()) body += ",";
    body += extra_label;
  }
  std::string out = name + suffix;
  if (!body.empty()) out += "{" + body + "}";
  return out;
}

std::string PromDouble(double v) {
  if (std::isinf(v)) return "+Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// All of `text` as an int64, the only sample value the serializer writes:
/// no whitespace, no trailing bytes, no overflow.
int64_t ParseSample(const std::string& text) {
  int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    ParseError("bad sample value '" + text + "'");
  }
  return v;
}

/// All of `text` as a histogram bound: `+Inf` or a finite double.
double ParseBound(const std::string& text) {
  if (text == "+Inf") return std::numeric_limits<double>::infinity();
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    ParseError("bad le bound '" + text + "'");
  }
  return v;
}

}  // namespace

std::string MetricRegistry::ToPrometheusText(const MetricsSnapshot& snap) {
  std::string out;
  std::string name, labels;
  std::string last_typed;
  auto type_line = [&](const std::string& n, const char* type) {
    if (n != last_typed) {
      out += "# TYPE " + n + " " + type + "\n";
      last_typed = n;
    }
  };
  for (const auto& [key, value] : snap.counters) {
    SplitKey(key, &name, &labels);
    type_line(name, "counter");
    out += PromKey(name, "", labels) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [key, value] : snap.gauges) {
    SplitKey(key, &name, &labels);
    type_line(name, "gauge");
    out += PromKey(name, "", labels) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [key, h] : snap.histograms) {
    SplitKey(key, &name, &labels);
    type_line(name, "histogram");
    for (const auto& [le, cumulative] : h.buckets) {
      out += PromKey(name, "_bucket", labels, "le=\"" + PromDouble(le) +
                                                  "\"") +
             " " + std::to_string(cumulative) + "\n";
    }
    out += PromKey(name, "_sum", labels) + " " + std::to_string(h.sum) + "\n";
    out += PromKey(name, "_count", labels) + " " + std::to_string(h.count) +
           "\n";
  }
  return out;
}

MetricsSnapshot MetricRegistry::FromPrometheusText(const std::string& text) {
  MetricsSnapshot snap;
  // TYPE declarations tell us which section each sample belongs to.
  std::map<std::string, std::string> types;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> <type>"; any other comment is skipped.
      if (line.rfind("# TYPE ", 0) == 0) {
        const size_t name_begin = 7;
        const size_t name_end = line.find(' ', name_begin);
        if (name_end == std::string::npos) ParseError("bad TYPE line");
        types[line.substr(name_begin, name_end - name_begin)] =
            line.substr(name_end + 1);
      }
      continue;
    }
    // "<name>[{labels}] <value>". The key ends at the first space OUTSIDE
    // the label values — a quoted label value may itself contain spaces, so
    // a plain rfind(' ') would split inside the labels.
    const size_t key_end = FindUnquoted(line, 0, ' ');
    if (key_end == std::string::npos) {
      ParseError("bad sample line '" + line + "'");
    }
    std::string key = line.substr(0, key_end);
    const int64_t value = ParseSample(line.substr(key_end + 1));
    std::string name, labels;
    SplitKey(key, &name, &labels);

    // Histogram series: name ends with _bucket/_sum/_count and the base
    // name is TYPEd histogram.
    auto base_of = [&](const std::string& suffix) -> std::string {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        const std::string base =
            name.substr(0, name.size() - suffix.size());
        auto it = types.find(base);
        if (it != types.end() && it->second == "histogram") return base;
      }
      return "";
    };
    std::string base;
    if (!(base = base_of("_bucket")).empty()) {
      // Extract (and drop) the le label — it is ours, not the metric's.
      const std::string marker = "le=\"";
      const size_t le_pos = labels.rfind(marker);
      if (le_pos == std::string::npos) ParseError("_bucket without le label");
      const size_t le_end = labels.find('"', le_pos + marker.size());
      const double le = ParseBound(labels.substr(
          le_pos + marker.size(), le_end - le_pos - marker.size()));
      std::string rest = labels.substr(0, le_pos);
      if (!rest.empty() && rest.back() == ',') rest.pop_back();
      snap.histograms[FullKey(base, rest)].buckets.emplace_back(le, value);
    } else if (!(base = base_of("_sum")).empty()) {
      snap.histograms[FullKey(base, labels)].sum = value;
    } else if (!(base = base_of("_count")).empty()) {
      snap.histograms[FullKey(base, labels)].count = value;
    } else {
      auto it = types.find(name);
      if (it == types.end()) ParseError("sample '" + name + "' has no TYPE");
      if (it->second == "counter") {
        snap.counters[key] = value;
      } else if (it->second == "gauge") {
        snap.gauges[key] = value;
      } else {
        ParseError("unknown type '" + it->second + "'");
      }
    }
  }
  return snap;
}

}  // namespace common
}  // namespace od
