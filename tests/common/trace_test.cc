#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace od {
namespace common {
namespace {

#if OD_TRACE_ENABLED

struct Ev {
  std::string name;
  int64_t ts = 0;
  int64_t dur = 0;
  uint32_t tid = 0;
  int depth = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

int64_t FieldAfter(const std::string& json, size_t from,
                   const std::string& key) {
  const size_t pos = json.find(key, from);
  EXPECT_NE(pos, std::string::npos) << "missing " << key;
  if (pos == std::string::npos) return 0;
  return std::strtoll(json.c_str() + pos + key.size(), nullptr, 10);
}

/// Pulls every complete event out of the export. The format is ours
/// (trace.cc), so field-order scanning is a faithful parse.
std::vector<Ev> ParseEvents(const std::string& json) {
  std::vector<Ev> events;
  const std::string marker = "{\"name\":\"";
  size_t pos = json.find(marker);
  while (pos != std::string::npos) {
    Ev e;
    const size_t name_begin = pos + marker.size();
    const size_t name_end = json.find('"', name_begin);
    e.name = json.substr(name_begin, name_end - name_begin);
    const size_t obj_end = json.find('}', name_end);  // closes "args"
    e.ts = FieldAfter(json, name_end, "\"ts\":");
    e.dur = FieldAfter(json, name_end, "\"dur\":");
    e.tid = static_cast<uint32_t>(FieldAfter(json, name_end, "\"tid\":"));
    e.depth = static_cast<int>(FieldAfter(json, name_end, "\"depth\":"));
    e.trace_id = static_cast<uint64_t>(
        FieldAfter(json, name_end, "\"trace_id\":"));
    e.span_id = static_cast<uint64_t>(
        FieldAfter(json, name_end, "\"span_id\":"));
    e.parent_id = static_cast<uint64_t>(
        FieldAfter(json, name_end, "\"parent_id\":"));
    events.push_back(e);
    pos = json.find(marker, obj_end);
  }
  return events;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TraceTest, ExportIsWellFormedChromeTraceJson) {
  {
    OD_TRACE_SPAN("test.outer");
    OD_TRACE_SPAN("test.inner");
  }
  std::string json = Tracer::Global().ExportChromeTrace();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  while (!json.empty() && std::isspace(static_cast<unsigned char>(json.back()))) {
    json.pop_back();
  }
  EXPECT_EQ(json.substr(json.size() - 2), "]}") << json;
  // Balanced braces — the events are flat objects, so a count suffices.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST_F(TraceTest, SpansNestWithDepthAndContainment) {
  {
    OD_TRACE_SPAN("test.outer");
    {
      OD_TRACE_SPAN("test.inner");
    }
  }
  const auto events = ParseEvents(Tracer::Global().ExportChromeTrace());
  const auto find = [&](const std::string& name) -> const Ev* {
    for (const auto& e : events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  const Ev* outer = find("test.outer");
  const Ev* inner = find("test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts, inner->ts);
  EXPECT_GE(outer->ts + outer->dur, inner->ts + inner->dur);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer::Global().Disable();
  {
    OD_TRACE_SPAN("test.invisible");
  }
  const std::string json = Tracer::Global().ExportChromeTrace();
  EXPECT_EQ(json.find("test.invisible"), std::string::npos);
}

TEST_F(TraceTest, RingOverflowCountsDrops) {
  for (int i = 0; i < Tracer::kRingSize + 10; ++i) {
    OD_TRACE_SPAN("test.tick");
  }
  EXPECT_GE(Tracer::Global().dropped_events(), 10);
  // The export still renders a full (truncated) window.
  const auto events = ParseEvents(Tracer::Global().ExportChromeTrace());
  EXPECT_EQ(static_cast<int>(events.size()), Tracer::kRingSize);
}

/// Eight threads trace through ParallelFor concurrently. A
/// barrier inside the body holds all eight items open at once, which is
/// only possible if eight distinct threads (7 workers + the caller) each
/// claimed one — so the export must show eight tid lanes. Also the TSan
/// target for the record path (this whole binary runs under TSan in CI).
TEST_F(TraceTest, EightLanesThroughThreadPool) {
  constexpr int kLanes = 8;
  ThreadPool pool(kLanes);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  ParallelFor(&pool, kLanes, [&](int64_t) {
    OD_TRACE_SPAN("test.work");
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == kLanes) {
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return arrived == kLanes; });
    }
  });
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ExportChromeTrace();
  const auto events = ParseEvents(json);

  std::set<uint32_t> work_tids;
  for (const auto& e : events) {
    if (e.name == "test.work") work_tids.insert(e.tid);
  }
  EXPECT_EQ(static_cast<int>(work_tids.size()), kLanes) << json;

  // Per lane, spans strictly nest or are disjoint — never partially
  // overlapping. That is what makes the Chrome viewer stack them.
  std::map<uint32_t, std::vector<Ev>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(e);
  for (auto& [tid, lane] : by_tid) {
    std::sort(lane.begin(), lane.end(), [](const Ev& a, const Ev& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.depth < b.depth;
    });
    for (size_t i = 0; i + 1 < lane.size(); ++i) {
      const Ev& a = lane[i];
      const Ev& b = lane[i + 1];
      const bool disjoint = b.ts >= a.ts + a.dur;
      const bool nested = b.ts + b.dur <= a.ts + a.dur;
      EXPECT_TRUE(disjoint || nested)
          << "lane " << tid << ": [" << a.name << " " << a.ts << "+"
          << a.dur << "] vs [" << b.name << " " << b.ts << "+" << b.dur
          << "]";
    }
    // thread_pool.chunk wraps each body invocation, so every lane that
    // ran test.work shows the enclosing chunk span too.
    if (work_tids.count(tid) > 0) {
      EXPECT_TRUE(std::any_of(lane.begin(), lane.end(), [](const Ev& e) {
        return e.name == std::string("thread_pool.chunk");
      })) << "lane " << tid;
    }
  }
}

/// The tentpole contract: a request's TraceContext crosses the pool. A
/// barrier holds all eight ParallelFor lanes open at once (so seven spans
/// ran on stolen/submitted tasks, not inline), and each lane also submits
/// a nested TaskGroup task. Every resulting span must carry the request's
/// trace id and sit in one well-parented tree under the root span.
TEST_F(TraceTest, ContextPropagatesAcrossPoolIntoOneTree) {
  constexpr int kLanes = 8;
  ThreadPool pool(kLanes);
  uint64_t root_trace = 0;
  uint64_t root_span = 0;
  {
    TraceContextScope request(TraceContext::NewRequest());
    TraceSpan root("test.request");
    root_trace = root.context().trace_id;
    root_span = root.context().span_id;
    TaskGroup nested(&pool);
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    ParallelFor(&pool, kLanes, [&](int64_t) {
      OD_TRACE_SPAN("test.work");
      nested.Submit([] { OD_TRACE_SPAN("test.nested"); });
      std::unique_lock<std::mutex> lock(mu);
      if (++arrived == kLanes) {
        cv.notify_all();
      } else {
        cv.wait(lock, [&] { return arrived == kLanes; });
      }
    });
    nested.Wait();
  }
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ExportChromeTrace();
  const auto events = ParseEvents(json);

  ASSERT_NE(root_trace, 0u);
  std::set<uint64_t> ids_in_trace;
  int work = 0, nested_spans = 0;
  for (const auto& e : events) {
    if (e.trace_id == root_trace) ids_in_trace.insert(e.span_id);
  }
  for (const auto& e : events) {
    if (e.name == "test.work") {
      ++work;
      EXPECT_EQ(e.trace_id, root_trace) << "work span escaped the trace";
    }
    if (e.name == "test.nested") {
      ++nested_spans;
      EXPECT_EQ(e.trace_id, root_trace) << "nested span escaped the trace";
    }
    if (e.trace_id != root_trace) continue;
    // Well-parented: every span in the trace either IS the root or hangs
    // off another recorded span of the same trace.
    if (e.span_id == root_span) {
      EXPECT_EQ(e.parent_id, 0u) << e.name;
    } else {
      EXPECT_TRUE(ids_in_trace.count(e.parent_id) > 0)
          << e.name << " parent " << e.parent_id << " not in trace";
    }
  }
  EXPECT_EQ(work, kLanes);
  EXPECT_EQ(nested_spans, kLanes);

  // The barrier forced 7 of the 8 bodies onto pool tasks: those spans
  // recorded on tids other than the root's, yet still in the root's tree.
  std::set<uint32_t> work_tids;
  uint32_t root_tid = 0;
  for (const auto& e : events) {
    if (e.name == "test.work") work_tids.insert(e.tid);
    if (e.name == "test.request") root_tid = e.tid;
  }
  EXPECT_EQ(static_cast<int>(work_tids.size()), kLanes);
  EXPECT_GT(work_tids.count(root_tid), 0u);  // the caller participates
}

/// Two requests sharing one pool, running concurrently: steals interleave
/// their tasks on the same workers, but the per-task context restore must
/// keep every span in its own request's trace — zero cross-contamination.
TEST_F(TraceTest, ConcurrentRequestsDoNotCrossContaminate) {
  ThreadPool pool(4);
  constexpr int kItems = 64;
  uint64_t traces[2] = {0, 0};
  auto run_request = [&](int which, const char* span_name) {
    TraceContextScope request(TraceContext::NewRequest());
    TraceSpan root(which == 0 ? "test.req_a" : "test.req_b");
    traces[which] = root.context().trace_id;
    ParallelFor(&pool, kItems, [&](int64_t) {
      TraceSpan work(span_name);
      (void)work;
    });
  };
  std::thread a([&] { run_request(0, "test.work_a"); });
  std::thread b([&] { run_request(1, "test.work_b"); });
  a.join();
  b.join();
  Tracer::Global().Disable();
  const auto events = ParseEvents(Tracer::Global().ExportChromeTrace());

  ASSERT_NE(traces[0], 0u);
  ASSERT_NE(traces[1], 0u);
  ASSERT_NE(traces[0], traces[1]);
  int seen_a = 0, seen_b = 0;
  for (const auto& e : events) {
    if (e.name == "test.work_a") {
      ++seen_a;
      EXPECT_EQ(e.trace_id, traces[0]) << "A span bled into another trace";
    } else if (e.name == "test.work_b") {
      ++seen_b;
      EXPECT_EQ(e.trace_id, traces[1]) << "B span bled into another trace";
    }
  }
  EXPECT_EQ(seen_a, kItems);
  EXPECT_EQ(seen_b, kItems);
}

TEST_F(TraceTest, SpanContextSurvivesForDeferredWork) {
  // TraceSpan::context() hands out {trace, span}; installing it later —
  // even on another thread, after the span closed — parents new spans
  // under the original one (how plans re-enter their planning request).
  TraceContext deferred;
  uint64_t parent_span = 0;
  {
    TraceContextScope request(TraceContext::NewRequest());
    TraceSpan root("test.deferred_root");
    deferred = root.context();
    parent_span = deferred.span_id;
  }
  std::thread([&] {
    TraceContextScope adopt(deferred);
    OD_TRACE_SPAN("test.deferred_child");
  }).join();
  Tracer::Global().Disable();
  const auto events = ParseEvents(Tracer::Global().ExportChromeTrace());
  bool found = false;
  for (const auto& e : events) {
    if (e.name == "test.deferred_child") {
      found = true;
      EXPECT_EQ(e.trace_id, deferred.trace_id);
      EXPECT_EQ(e.parent_id, parent_span);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, ClearDiscardsEverything) {
  {
    OD_TRACE_SPAN("test.gone");
  }
  Tracer::Global().Clear();
  const std::string json = Tracer::Global().ExportChromeTrace();
  EXPECT_EQ(json.find("test.gone"), std::string::npos);
  EXPECT_EQ(Tracer::Global().dropped_events(), 0);
}

#else  // !OD_TRACE_ENABLED

TEST(TraceTest, CompiledOutSpansAreNoOps) {
  // With OD_TRACE=OFF the macro must still parse in statement position.
  OD_TRACE_SPAN("test.never");
  SUCCEED();
}

#endif  // OD_TRACE_ENABLED

/// A span that opens and closes inside another must export inside it, for
/// every placement of the four endpoints on a 250 ns grid over 6 µs —
/// whole-µs truncation included. The explicit pair first is one that
/// truncating the start and the duration separately exports as 0+4 and
/// 1+4: a child ending after its parent.
TEST(SpanMicrosTest, NestedSpansExportNested) {
  using Clock = std::chrono::steady_clock;
  const auto at = [](int64_t ns) {
    return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::nanoseconds(ns)));
  };
  const SpanMicros parent = ToSpanMicros(at(900), at(5500));
  const SpanMicros child = ToSpanMicros(at(1000), at(5400));
  EXPECT_EQ(parent.start_us, 0);
  EXPECT_EQ(parent.dur_us, 5);
  EXPECT_EQ(child.start_us, 1);
  EXPECT_EQ(child.dur_us, 4);

  constexpr int64_t kStep = 250;
  constexpr int64_t kEnd = 6000;
  int64_t pairs = 0;
  for (int64_t ps = 0; ps <= kEnd; ps += kStep) {
    for (int64_t cs = ps; cs <= kEnd; cs += kStep) {
      for (int64_t ce = cs; ce <= kEnd; ce += kStep) {
        for (int64_t pe = ce; pe <= kEnd; pe += kStep) {
          const SpanMicros p = ToSpanMicros(at(ps), at(pe));
          const SpanMicros c = ToSpanMicros(at(cs), at(ce));
          ASSERT_GE(c.start_us, p.start_us);
          ASSERT_LE(c.start_us + c.dur_us, p.start_us + p.dur_us)
              << "parent " << ps << "-" << pe << " ns, child " << cs << "-"
              << ce << " ns";
          ++pairs;
        }
      }
    }
  }
  EXPECT_GT(pairs, 20000);
}

}  // namespace
}  // namespace common
}  // namespace od
