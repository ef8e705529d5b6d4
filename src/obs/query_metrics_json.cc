#include "obs/query_metrics_json.h"

#include "obs/json_util.h"

namespace eva::obs {

namespace {

constexpr size_t kNumCategories =
    static_cast<size_t>(CostCategory::kNumCategories);

void AppendCountMap(std::string* out, const char* key,
                    const std::map<std::string, int64_t>& m) {
  AppendJsonString(out, key);
  *out += ":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) *out += ',';
    first = false;
    AppendJsonString(out, k);
    *out += ':' + std::to_string(v);
  }
  *out += '}';
}

Status ReadCountMap(const JsonValue& root, const char* key,
                    std::map<std::string, int64_t>* out) {
  const JsonValue* obj = root.Find(key);
  if (obj == nullptr) return Status::OK();  // absent == empty
  if (!obj->is_object()) {
    return Status::ParseError(std::string("metrics json: '") + key +
                              "' is not an object");
  }
  for (const auto& [k, v] : obj->object()) {
    if (!v.is_number()) {
      return Status::ParseError(std::string("metrics json: '") + key +
                                "' value for " + k + " is not a number");
    }
    (*out)[k] = static_cast<int64_t>(v.number());
  }
  return Status::OK();
}

Result<SimClock::Snapshot> SnapshotFromValue(const JsonValue& obj) {
  if (!obj.is_object()) {
    return Status::ParseError("snapshot json: expected an object");
  }
  SimClock::Snapshot s;
  for (size_t i = 0; i < kNumCategories; ++i) {
    s.ms[i] = obj.NumberOr(CostCategoryName(static_cast<CostCategory>(i)),
                           0.0);
  }
  // Reject unknown categories so renames fail loudly instead of silently
  // dropping time.
  for (const auto& [k, v] : obj.object()) {
    (void)v;
    bool known = false;
    for (size_t i = 0; i < kNumCategories; ++i) {
      known = known ||
              k == CostCategoryName(static_cast<CostCategory>(i));
    }
    if (!known) {
      return Status::ParseError("snapshot json: unknown category '" + k +
                                "'");
    }
  }
  return s;
}

}  // namespace

std::string SnapshotToJson(const SimClock::Snapshot& snapshot) {
  std::string out = "{";
  for (size_t i = 0; i < kNumCategories; ++i) {
    if (i > 0) out += ',';
    AppendJsonString(&out, CostCategoryName(static_cast<CostCategory>(i)));
    out += ':' + FormatJsonNumber(snapshot.ms[i]);
  }
  out += '}';
  return out;
}

Result<SimClock::Snapshot> SnapshotFromJson(const std::string& json) {
  EVA_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  return SnapshotFromValue(root);
}

std::string QueryMetricsToJson(const exec::QueryMetrics& metrics) {
  std::string out = "{";
  out += "\"session_id\":" + std::to_string(metrics.session_id) + ',';
  AppendCountMap(&out, "invocations", metrics.invocations);
  out += ',';
  AppendCountMap(&out, "reused", metrics.reused);
  out += ",\"rows_out\":" + std::to_string(metrics.rows_out);
  out += ",\"optimizer_ms\":" + FormatJsonNumber(metrics.optimizer_ms);
  out += ",\"breakdown\":" + SnapshotToJson(metrics.breakdown);
  out += '}';
  return out;
}

Result<exec::QueryMetrics> QueryMetricsFromJson(const std::string& json) {
  EVA_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::ParseError("metrics json: expected an object");
  }
  exec::QueryMetrics m;
  // Absent in pre-service dumps: default to the single-session id.
  m.session_id = static_cast<int64_t>(root.NumberOr("session_id", 0));
  EVA_RETURN_IF_ERROR(ReadCountMap(root, "invocations", &m.invocations));
  EVA_RETURN_IF_ERROR(ReadCountMap(root, "reused", &m.reused));
  m.rows_out = static_cast<int64_t>(root.NumberOr("rows_out", 0));
  m.optimizer_ms = root.NumberOr("optimizer_ms", 0);
  if (const JsonValue* breakdown = root.Find("breakdown")) {
    EVA_ASSIGN_OR_RETURN(m.breakdown, SnapshotFromValue(*breakdown));
  }
  return m;
}

}  // namespace eva::obs
