#include "common/trace.h"

#include <mutex>
#include <vector>

#include "common/metrics.h"

namespace od {
namespace common {

namespace {

/// Per-thread span storage. Registered once in the global list below and
/// intentionally never freed (export may run after the owning thread has
/// exited).
struct RingBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  int64_t next = 0;     ///< total spans ever recorded here
  int64_t dropped = 0;  ///< spans overwritten before an export
  Tracer::Event events[Tracer::kRingSize];
};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<RingBuffer*>& Registry() {
  static std::vector<RingBuffer*>* rings = new std::vector<RingBuffer*>();
  return *rings;
}

RingBuffer& ThreadRing() {
  thread_local RingBuffer* ring = [] {
    auto* r = new RingBuffer();
    std::lock_guard<std::mutex> lock(RegistryMutex());
    r->tid = static_cast<uint32_t>(Registry().size());
    Registry().push_back(r);
    return r;
  }();
  return *ring;
}

thread_local uint32_t span_depth = 0;

/// The request scope of the calling thread. Swapped by TraceContextScope,
/// TraceSpan, and the scheduler's per-task restore; read on every span
/// open.
thread_local TraceContext current_context;

/// Ring overflow, scrapeable: nonzero rate means the trace window is
/// shorter than the span volume and exports are losing the oldest spans.
Counter& DroppedSpansCounter() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "od_trace_dropped_spans_total",
      "Spans overwritten in a per-thread ring before export");
  return c;
}

}  // namespace

TraceContext TraceContext::NewRequest() {
  return TraceContext{Tracer::NewTraceId(), 0};
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

TraceContext Tracer::CurrentContext() { return current_context; }

void Tracer::SetCurrentContext(TraceContext ctx) { current_context = ctx; }

uint64_t Tracer::NewTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Tracer::NewSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const char* name, int64_t start_us, int64_t dur_us,
                    uint32_t depth, uint64_t trace_id, uint64_t span_id,
                    uint64_t parent_id) {
  RingBuffer& ring = ThreadRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  Event& e = ring.events[ring.next % kRingSize];
  if (ring.next >= kRingSize) {
    ++ring.dropped;
    DroppedSpansCounter().Add(1);
  }
  e.name = name;
  e.start_us = start_us;
  e.dur_us = dur_us;
  e.tid = ring.tid;
  e.depth = depth;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_id = parent_id;
  ++ring.next;
}

uint32_t Tracer::CurrentDepthAndPush() { return span_depth++; }

void Tracer::PopDepth() { --span_depth; }

void Tracer::Clear() {
  std::lock_guard<std::mutex> registry_lock(RegistryMutex());
  for (RingBuffer* ring : Registry()) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->next = 0;
    ring->dropped = 0;
  }
}

int64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> registry_lock(RegistryMutex());
  int64_t total = 0;
  for (RingBuffer* ring : Registry()) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

std::string Tracer::ExportChromeTrace() const {
  std::lock_guard<std::mutex> registry_lock(RegistryMutex());
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (RingBuffer* ring : Registry()) {
    std::lock_guard<std::mutex> lock(ring->mu);
    const int64_t count =
        ring->next < kRingSize ? ring->next : int64_t{kRingSize};
    const int64_t begin = ring->next - count;
    for (int64_t i = begin; i < ring->next; ++i) {
      const Event& e = ring->events[i % kRingSize];
      if (!first) out += ",";
      first = false;
      out += "\n{\"name\":";
      AppendJsonString(e.name, &out);
      out += ",\"cat\":\"od\",\"ph\":\"X\",\"ts\":" +
             std::to_string(e.start_us) +
             ",\"dur\":" + std::to_string(e.dur_us) +
             ",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
             ",\"args\":{\"depth\":" + std::to_string(e.depth) +
             ",\"trace_id\":" + std::to_string(e.trace_id) +
             ",\"span_id\":" + std::to_string(e.span_id) +
             ",\"parent_id\":" + std::to_string(e.parent_id) + "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

void TraceSpan::Open(const char* name) {
  name_ = name;
  prev_ = Tracer::CurrentContext();
  span_id_ = Tracer::NewSpanId();
  Tracer::SetCurrentContext(TraceContext{prev_.trace_id, span_id_});
  depth_ = Tracer::CurrentDepthAndPush();
  start_ = std::chrono::steady_clock::now();
}

SpanMicros ToSpanMicros(std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) {
  const auto micros = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               t.time_since_epoch())
        .count();
  };
  const int64_t start_us = micros(start);
  return SpanMicros{start_us, micros(end) - start_us};
}

void TraceSpan::Close() {
  const SpanMicros window =
      ToSpanMicros(start_, std::chrono::steady_clock::now());
  Tracer::PopDepth();
  Tracer::SetCurrentContext(prev_);
  Tracer::Global().Record(name_, window.start_us, window.dur_us, depth_,
                          prev_.trace_id, span_id_, prev_.span_id);
}

}  // namespace common
}  // namespace od
