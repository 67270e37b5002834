#ifndef OD_SERVICE_QUERY_PROFILE_H_
#define OD_SERVICE_QUERY_PROFILE_H_

#include <cstdint>
#include <string>

namespace od {
namespace service {

/// The per-request record the service's flight recorder keeps: one
/// profiled request (an Implies miss, a ProveAll sweep, a Counterexample,
/// a Plan, a plan Execute, or a writer Apply) reduced to the counters an
/// operator asks for first. Assembled from *scoped deltas* of the pinned
/// epoch prover's counters and the request's own ExecStats — never from
/// global registry totals, so two concurrent requests don't bleed into
/// each other's profiles (the prover deltas are still approximate when
/// sessions share an epoch prover under concurrency; that caveat is
/// documented, not hidden).
struct QueryProfile {
  enum class Kind {
    kImplies,
    kProveAll,
    kPlan,
    kExecute,
    kApply,
    kCounterexample
  };

  Kind kind = Kind::kImplies;
  std::string tenant;
  uint64_t epoch = 0;
  /// The request's trace id — join key into the tracer's Chrome export
  /// (`args.trace_id` there). 0 when the build has tracing compiled out.
  uint64_t trace_id = 0;
  /// Request-specific one-liner: the dependency asked, the query shape
  /// planned, or the mutation count applied.
  std::string detail;

  /// Steady-clock microseconds (same clock as trace spans).
  int64_t start_us = 0;
  int64_t wall_us = 0;

  /// Prover work attributable to this request (before/after deltas of the
  /// pinned epoch prover): model searches, memo misses the FD split
  /// refuted without one, and memo answers.
  int64_t prover_searches = 0;
  int64_t prover_split_refutations = 0;
  int64_t prover_cache_hits = 0;

  /// Planner / executor outcomes (kPlan and kExecute; zero elsewhere).
  int sorts_elided = 0;
  int joins_elided = 0;
  int64_t rows_output = 0;
  int64_t spilled_bytes = 0;
  int64_t exchange_peak_rows = 0;

  /// Classified against the tenant's slow-query threshold at record time
  /// (a request-latency histogram quantile, floored — see ServerOptions).
  bool slow = false;

  static const char* KindName(Kind k);

  /// One JSON object (single line, no trailing newline; `tenant` and
  /// `detail` escaped by common::AppendJsonString) — the element shape of
  /// FlightRecorder::DumpJson, which Server::StatusJson and /statusz serve.
  std::string ToJson() const;
};

}  // namespace service
}  // namespace od

#endif  // OD_SERVICE_QUERY_PROFILE_H_
