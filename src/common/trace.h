#ifndef OD_COMMON_TRACE_H_
#define OD_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

/// Hierarchical span tracing for the engine, exported as Chrome
/// `trace_event` JSON (load the file in chrome://tracing or
/// https://ui.perfetto.dev). Usage:
///
///   void DrainFragment(...) {
///     OD_TRACE_SPAN("exchange.fragment");
///     ...  // the span covers the enclosing scope
///   }
///
/// Two gates keep the cost out of hot loops:
///   - Compile time: configure with -DOD_TRACE=OFF and OD_TRACE_SPAN
///     expands to nothing — zero code, zero branches — and the whole
///     TraceContext propagation below compiles to no-ops (the CI overhead
///     guard builds both ways and compares).
///   - Run time: tracing starts disabled; until `Tracer::Enable()` a span
///     is one relaxed atomic load and a branch.
///
/// Threading model: each thread records completed spans into its own
/// fixed-size ring buffer (no allocation on the record path after the
/// buffer exists); each buffer has its own mutex, taken briefly when a
/// span completes and during export, so the structure is race-free by
/// construction — TSan-clean without depending on clever lock-free code.
/// Span nesting per thread comes out in the JSON for free: Chrome's
/// viewer stacks `ph:"X"` events of one tid by containment.
///
/// ## Request scoping: TraceContext
///
/// A request (a service Session::Implies/Plan, a Server::Apply sweep, a
/// test) opens a *trace*: a process-unique trace id plus a parent span id,
/// carried in a thread-local slot. Every span records the current context
/// — so spans carry `(trace_id, span_id, parent_id)` and form an explicit
/// tree, not just a per-thread nesting — and every span installs itself as
/// the context for its own scope, so children parent under it.
///
/// The context crosses threads: ThreadPool::Submit / TaskGroup::Submit /
/// ParallelFor capture the submitter's context into the task and restore
/// it inside the task body (see thread_pool.cc), so spans from exchange
/// producer pumps, spill-run sorts, and ProveAll chunk sweeps all parent
/// under the originating request even across steals, helping waiters, and
/// parked/resumed producers. Install a root context with:
///
///   common::TraceContextScope request(common::TraceContext::NewRequest());
///   common::TraceSpan root("my.request");     // parent_id = 0: the root
///   ...                                       // children parent under it

#ifndef OD_TRACE_ENABLED
#define OD_TRACE_ENABLED 1
#endif

namespace od {
namespace common {

/// The request scope carried in a thread-local slot: which trace the
/// current work belongs to and which span is the current parent. A zero
/// trace_id means "no request" (spans still record, with ids, under
/// trace 0); a zero span_id means "parent is the trace root".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  /// A fresh context for a new request: process-unique trace id, no
  /// parent span. Install it with TraceContextScope.
  static TraceContext NewRequest();
};

class Tracer {
 public:
  /// One completed span. Timestamps are steady-clock microseconds; `tid`
  /// is a small dense id assigned per recording thread (lane number in
  /// the viewer, stable within a process).
  struct Event {
    const char* name;  ///< static string supplied to OD_TRACE_SPAN
    int64_t start_us;
    int64_t dur_us;
    uint32_t tid;
    uint32_t depth;      ///< nesting depth at record time (0 = top level)
    uint64_t trace_id;   ///< request the span belongs to (0 = none)
    uint64_t span_id;    ///< process-unique id of this span
    uint64_t parent_id;  ///< enclosing span's id (0 = trace root)
  };

  /// Events each thread can hold before the oldest are overwritten.
  static constexpr int kRingSize = 65536;

  static Tracer& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Discards all recorded events (dropped count included; the
  /// od_trace_dropped_spans_total registry counter is NOT reset — it is
  /// monotonic, like every counter).
  void Clear();

  /// Spans overwritten in some ring before export. Nonzero means the
  /// trace window was longer than kRingSize spans on some thread. Also
  /// exported as the od_trace_dropped_spans_total registry counter so
  /// ring overflow is visible in scrapes.
  int64_t dropped_events() const;

  /// Renders every buffered span as Chrome trace JSON — an object with a
  /// `traceEvents` array of complete (`"ph":"X"`) events, one pid, one
  /// tid lane per recording thread; trace/span/parent ids ride in `args`.
  std::string ExportChromeTrace() const;

  /// The calling thread's current request context (what a span opened
  /// right now would parent under). {0, 0} outside any request.
  static TraceContext CurrentContext();
  /// Replaces the slot wholesale. Prefer TraceContextScope; this is the
  /// raw hook it and the scheduler's task restore are built on.
  static void SetCurrentContext(TraceContext ctx);

  /// Process-unique id mints (never 0).
  static uint64_t NewTraceId();
  static uint64_t NewSpanId();

  /// Record-path internals, called by TraceSpan.
  void Record(const char* name, int64_t start_us, int64_t dur_us,
              uint32_t depth, uint64_t trace_id, uint64_t span_id,
              uint64_t parent_id);
  static uint32_t CurrentDepthAndPush();
  static void PopDepth();

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
};

/// A span's exported window, in whole steady-clock microseconds.
struct SpanMicros {
  int64_t start_us;
  int64_t dur_us;
};
/// Truncates both endpoints to µs before taking the duration, so a span
/// that opens and closes inside another never ends after it in the export
/// (truncating the start and the duration separately can add 1 µs).
SpanMicros ToSpanMicros(std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end);

/// Installs `ctx` as the calling thread's TraceContext for the enclosing
/// scope and restores the previous context on exit. Compiles to nothing
/// under -DOD_TRACE=OFF.
class TraceContextScope {
 public:
#if OD_TRACE_ENABLED
  explicit TraceContextScope(TraceContext ctx)
      : prev_(Tracer::CurrentContext()) {
    Tracer::SetCurrentContext(ctx);
  }
  ~TraceContextScope() { Tracer::SetCurrentContext(prev_); }
#else
  explicit TraceContextScope(TraceContext) {}
#endif

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

#if OD_TRACE_ENABLED
 private:
  TraceContext prev_;
#endif
};

/// RAII span: captures the start time at construction and records the
/// completed span at destruction. Does nothing (beyond one relaxed load)
/// while tracing is disabled. Spans must strictly nest per thread — the
/// natural consequence of scope-based use. While open, the span is the
/// thread's current context (children parent under it); the previous
/// context is restored at destruction.
class TraceSpan {
 public:
  // The enabled-path bodies live out of line (trace.cc) on purpose: a span
  // in a hot function then inlines only a relaxed load, a branch, and a
  // cold call — keeping the function's fast paths (e.g. the prover's memo
  // hit before OD_TRACE_SPAN("prover.search")) small enough not to pay
  // layout/i-cache costs for tracing they never execute. The ≤5%
  // overhead-guard gate is what holds this honest.
  explicit TraceSpan(const char* name) {
    if (Tracer::Global().enabled()) Open(name);
  }
  ~TraceSpan() {
    if (name_ != nullptr) Close();
  }

  /// The context this span installed: {its trace, its span id}. Stash it
  /// to parent later work (e.g. a plan's execution) under this span even
  /// after it closes. Falls back to the ambient context when tracing was
  /// off at entry.
  TraceContext context() const {
    return name_ != nullptr ? TraceContext{prev_.trace_id, span_id_}
                            : Tracer::CurrentContext();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Open(const char* name);
  void Close();

  const char* name_ = nullptr;  ///< null = tracing was off at entry
  uint32_t depth_ = 0;
  uint64_t span_id_ = 0;
  TraceContext prev_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace common
}  // namespace od

#if OD_TRACE_ENABLED
#define OD_TRACE_CONCAT_INNER(a, b) a##b
#define OD_TRACE_CONCAT(a, b) OD_TRACE_CONCAT_INNER(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define OD_TRACE_SPAN(name) \
  ::od::common::TraceSpan OD_TRACE_CONCAT(od_trace_span_, __LINE__)(name)
#else
#define OD_TRACE_SPAN(name) \
  do {                      \
  } while (false)
#endif

#endif  // OD_COMMON_TRACE_H_
