#include "exec/exec_context.h"

namespace eva::exec {

void QueryMetrics::Accumulate(const QueryMetrics& other) {
  for (const auto& [k, v] : other.invocations) invocations[k] += v;
  for (const auto& [k, v] : other.reused) reused[k] += v;
  rows_out += other.rows_out;
  udf_retries += other.udf_retries;
  optimizer_ms += other.optimizer_ms;
  for (size_t i = 0; i < breakdown.ms.size(); ++i) {
    breakdown.ms[i] += other.breakdown.ms[i];
  }
}

Schema DetectorOutputSchema() {
  return Schema({{kColObj, DataType::kInt64},
                 {kColLabel, DataType::kString},
                 {kColArea, DataType::kDouble},
                 {kColScore, DataType::kDouble}});
}

Schema UdfOutputSchema(const catalog::UdfDef& def) {
  if (def.kind == catalog::UdfKind::kDetector) return DetectorOutputSchema();
  if (def.kind == catalog::UdfKind::kFilter) {
    return Schema({{def.name, DataType::kBool}});
  }
  return Schema({{def.name, DataType::kString}});
}

}  // namespace eva::exec
