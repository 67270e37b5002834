// od_perfbench: the libod benchmark driver. One invocation runs one
// workload for --seconds and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics (timed with tracing off) under --trace 0, the per-layer metrics
// (from a traced half-run) under --trace 1.
//
//   od_perfbench --workload reports_od --seed 1 --seconds 20 --trace 0
//       [--out-dir DIR] [--commit SHA]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every workload reports every metric (0 where a layer is not on the
/// workload's path). Must match BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"request_geomean_ms", "ms"},
    {"requests_per_s", "1/s"},
};

const MetricDef kPerLayer[] = {
    {"request.p95_geomean_ms", "ms"},
    {"service.open_session_us", "us"},
    {"service.plan_us", "us"},
    {"service.execute_us", "us"},
    {"service.implies_hot_us", "us"},
    {"service.implies_cold_us", "us"},
    {"service.implies_p99_us", "us"},
    {"service.apply_p50_ms", "ms"},
    {"service.apply_p99_ms", "ms"},
    {"service.fastpath_hits", "1/req"},
    {"service.batches", "1/req"},
    {"service.batch_size_mean", "queries"},
    {"service.batched_queries", "1/req"},
    {"service.publish_us_p50", "us"},
    {"service.memo_seeded", "1/apply"},
    {"theory.epoch_bumps", "1/apply"},
    {"theory.listener_notifications", "1/apply"},
    {"prover.searches", "1/req"},
    {"prover.memo_hits", "1/req"},
    {"prover.hit_ratio", "ratio"},
    {"prover.search_depth_p50", "attributes"},
    {"prover.memo_invalidated", "1/apply"},
    {"prover.memo_retained", "1/apply"},
    {"prover.retention_ratio", "ratio"},
    {"optimizer.plans_enumerated", "1/req"},
    {"optimizer.rows_est_error_pct_p50", "%"},
    {"optimizer.sorts_elided", "1/req"},
    {"optimizer.joins_elided", "1/req"},
    {"exec.self_ms.scan", "ms/req"},
    {"exec.self_ms.index_scan", "ms/req"},
    {"exec.self_ms.partitioned_scan", "ms/req"},
    {"exec.self_ms.filter", "ms/req"},
    {"exec.self_ms.project", "ms/req"},
    {"exec.self_ms.sort", "ms/req"},
    {"exec.self_ms.topk", "ms/req"},
    {"exec.self_ms.limit", "ms/req"},
    {"exec.self_ms.stream_agg", "ms/req"},
    {"exec.self_ms.hash_agg", "ms/req"},
    {"exec.self_ms.parallel_hash_agg", "ms/req"},
    {"exec.self_ms.combine_partials", "ms/req"},
    {"exec.self_ms.hash_join", "ms/req"},
    {"exec.self_ms.merge_join", "ms/req"},
    {"exec.self_ms.exchange", "ms/req"},
    {"exec.rows_scanned", "1/req"},
    {"exec.rows_joined", "1/req"},
    {"exec.rows_output", "1/req"},
    {"exec.rows_scanned_per_output", "ratio"},
    {"exec.batches", "1/req"},
    {"exec.sorts", "1/req"},
    {"exec.joins", "1/req"},
    {"exec.fragments", "1/req"},
    {"exec.spills", "1/req"},
    {"exec.spilled_bytes", "1/req"},
    {"exec.exchange_peak_rows", "rows"},
    {"exec.fragment_drain_us_p50", "us"},
    {"common.pool_task_us_p50", "us"},
    {"common.pool_steals", "1/req"},
    {"common.pool_submits", "1/req"},
    {"common.pool_queue_depth", "tasks"},
    {"engine.index_build_ms", "ms"},
    {"discovery.candidates", "1/req"},
    {"discovery.validations", "1/req"},
    {"discovery.ods_found", "1/req"},
    {"discovery.partitions_computed", "1/req"},
    {"discovery.partition_cache_hits", "1/req"},
    {"discovery.partition_cache_hit_ratio", "ratio"},
    {"bench.writer_late_ms_p99", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "od_perfbench: " << why
            << "\nusage: od_perfbench --workload "
               "reports_od|reports_blind|implies_churn|discover --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = static_cast<uint32_t>(std::stoul(value));
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const MetricTable& m) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << JsonNumber(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}";
  return out.str();
}

/// Completes `got` to exactly the metrics of `defs`: absent ones read 0
/// (the layer is not on this workload's path). A metric outside the list,
/// or with another unit, is a benchmark bug.
MetricTable Complete(const MetricTable& got, const MetricDef* defs, size_t n) {
  MetricTable out;
  for (size_t i = 0; i < n; ++i) out[defs[i].name] = Metric{0, defs[i].unit};
  for (const auto& [name, metric] : got) {
    auto it = out.find(name);
    if (it == out.end() || it->second.unit != metric.unit) {
      throw std::logic_error("metric " + name + " [" + metric.unit +
                             "] is not declared");
    }
    it->second = metric;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__)
  const bool optimized = false;
#else
  const bool optimized = true;
#endif
  if (build_type == "Debug" || !optimized) {
    std::cerr << "od_perfbench: refusing to report numbers from an "
                 "unoptimized (" << build_type << ") build of libod\n";
    return 2;
  }

  std::map<std::string, std::string> context = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", JsonNumber(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"build_type", build_type},
      {"compiler", __VERSION__},
      {"cores", std::to_string(CoreCount())},
      {"commit", args.commit},
  };

  WorkloadResult r;
  try {
    if (args.workload == "reports_od") {
      r = RunReports(args, /*od_aware=*/true);
    } else if (args.workload == "reports_blind") {
      r = RunReports(args, /*od_aware=*/false);
    } else if (args.workload == "implies_churn") {
      r = RunImpliesChurn(args);
    } else if (args.workload == "discover") {
      r = RunDiscover(args);
    } else {
      Usage("unknown workload " + args.workload);
    }
    r.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
    r.end_to_end = Complete(r.end_to_end, kEndToEnd,
                            sizeof kEndToEnd / sizeof kEndToEnd[0]);
    r.per_layer =
        Complete(r.per_layer, kPerLayer, sizeof kPerLayer / sizeof kPerLayer[0]);
  } catch (const std::exception& e) {
    std::cerr << "od_perfbench: " << e.what() << "\n";
    return 3;
  }
  for (const auto& [name, n] : r.threads) {
    context["threads." + name] = std::to_string(n);
  }

  std::ostringstream ctx;
  ctx << "{";
  bool first = true;
  for (const auto& [k, v] : context) {
    ctx << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
    first = false;
  }
  ctx << "}";
  std::ostringstream medians;
  medians << "{";
  first = true;
  for (const auto& [k, v] : r.class_medians_ms) {
    medians << (first ? "" : ", ") << "\"" << k << "\": " << JsonNumber(v);
    first = false;
  }
  medians << "}";

  const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) + "_trace" +
                           (args.trace ? "1" : "0");
  {
    std::ofstream record(stem + ".json");
    record << "{\"context\": " << ctx.str()
           << ",\n \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed
           << ",\n \"class_medians_ms\": " << medians.str()
           << ",\n \"end_to_end\": " << MetricsJson(r.end_to_end)
           << ",\n \"per_layer\": " << MetricsJson(r.per_layer) << "}\n";
  }
  if (args.trace) {
    // libod's own exporter (what /tracez serves): the benchmark's spans and
    // libod's spans under them. Each thread's ring keeps its latest
    // Tracer::kRingSize spans; the run context is in the run record.
    const std::string trace_path = stem + ".trace.json";
    std::ofstream trace(trace_path);
    trace << od::common::Tracer::Global().ExportChromeTrace();
    if (!trace) {
      std::cerr << "od_perfbench: cannot write " << trace_path << "\n";
      return 3;
    }
    std::cout << "trace: " << trace_path << " ("
              << od::common::Tracer::Global().dropped_events()
              << " older spans dropped)\n";
  }

  std::cout << "context: " << ctx.str() << "\n";
  std::cout << "class medians (ms): " << medians.str() << "\n";
  const MetricTable& shown = args.trace ? r.per_layer : r.end_to_end;
  for (const auto& [name, m] : shown) {
    std::cout << "  " << name << " = " << JsonNumber(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << MetricsJson(shown) << "}" << std::endl;
  return 0;
}
