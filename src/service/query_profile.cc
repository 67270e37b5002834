#include "service/query_profile.h"

#include "common/metrics.h"

namespace od {
namespace service {

const char* QueryProfile::KindName(Kind k) {
  switch (k) {
    case Kind::kImplies: return "implies";
    case Kind::kProveAll: return "prove_all";
    case Kind::kPlan: return "plan";
    case Kind::kExecute: return "execute";
    case Kind::kApply: return "apply";
    case Kind::kCounterexample: return "counterexample";
  }
  return "unknown";
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"kind\":\"";
  out += KindName(kind);
  out += "\",\"tenant\":";
  common::AppendJsonString(tenant, &out);
  out += ",\"epoch\":" + std::to_string(epoch);
  out += ",\"trace_id\":" + std::to_string(trace_id);
  out += ",\"detail\":";
  common::AppendJsonString(detail, &out);
  out += ",\"start_us\":" + std::to_string(start_us);
  out += ",\"wall_us\":" + std::to_string(wall_us);
  out += ",\"prover_searches\":" + std::to_string(prover_searches);
  out += ",\"prover_split_refutations\":" +
         std::to_string(prover_split_refutations);
  out += ",\"prover_cache_hits\":" + std::to_string(prover_cache_hits);
  out += ",\"sorts_elided\":" + std::to_string(sorts_elided);
  out += ",\"joins_elided\":" + std::to_string(joins_elided);
  out += ",\"rows_output\":" + std::to_string(rows_output);
  out += ",\"spilled_bytes\":" + std::to_string(spilled_bytes);
  out += ",\"exchange_peak_rows\":" + std::to_string(exchange_peak_rows);
  out += ",\"slow\":";
  out += slow ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace service
}  // namespace od
