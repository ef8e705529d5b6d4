// The benchmark's layer driver: replays the statements an EvaEngine would
// run by calling each layer's public entry point in the engine's order —
// parser::ParseStatement → optimizer::Optimizer::Optimize →
// exec::ExecutePlan → lifecycle::ViewLifecycleManager::ObserveQuery /
// EnforceBudget — and times every call from outside. It owns its own
// ViewStore, UdfManager, UdfRuntime, SimClock, StatisticsManager and
// MetricsRegistry, so the layer counters it reads belong to this replay
// alone. It adds nothing to the program under test.

#ifndef PERFBENCH_LAYER_DRIVER_H_
#define PERFBENCH_LAYER_DRIVER_H_

#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "engine/eva_engine.h"
#include "exec/exec_context.h"
#include "ingest/stream_ingestor.h"
#include "lifecycle/view_lifecycle.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "storage/statistics.h"
#include "storage/view_store.h"
#include "udf/udf_manager.h"
#include "udf/udf_runtime.h"
#include "vision/synthetic_video.h"

namespace perfbench {

/// Host time of one SELECT, split at the layer boundaries.
struct LayerTimes {
  double parse_us = 0;
  double optimize_ms = 0;
  double execute_ms = 0;
  double lifecycle_ms = 0;  // ObserveQuery + EnforceBudget
  double symbolic_ms = 0;   // UdfManager symbolic wall inside the above

  double SumMs() const {
    return parse_us / 1000.0 + optimize_ms + execute_ms + lifecycle_ms;
  }
};

struct DriverQuery {
  eva::Batch batch;
  eva::exec::QueryMetrics metrics;
  LayerTimes layers;
};

class LayerDriver {
 public:
  /// `catalog` must already hold the UDFs the statements use.
  LayerDriver(const eva::engine::EngineOptions& options,
              std::shared_ptr<eva::catalog::Catalog> catalog);
  LayerDriver(const LayerDriver&) = delete;
  LayerDriver& operator=(const LayerDriver&) = delete;

  /// Same effect as EvaEngine::CreateVideo / RegisterStream.
  eva::Status AddVideo(const eva::catalog::VideoInfo& info);
  eva::Status AddStream(const eva::catalog::VideoInfo& info,
                        const eva::ingest::StreamOptions& opts);
  /// One ingestion tick (the engine's IngestFrames without the WAL).
  eva::Status Ingest(const std::string& source, int64_t frames);

  /// Runs one SELECT through the layers, timing each call.
  eva::Result<DriverQuery> Run(const std::string& sql, int64_t session_id);

  const eva::storage::ViewStore& views() const { return views_; }
  const eva::udf::UdfManager& manager() const { return manager_; }
  const eva::lifecycle::ViewLifecycleManager& lifecycle() const {
    return *lifecycle_;
  }
  const eva::SimClock& clock() const { return clock_; }
  const eva::obs::MetricsRegistry& registry() const { return registry_; }

 private:
  eva::engine::EngineOptions options_;
  std::shared_ptr<eva::catalog::Catalog> catalog_;
  std::map<std::string, std::unique_ptr<eva::vision::SyntheticVideo>> videos_;
  std::map<std::string, std::unique_ptr<eva::storage::StatisticsManager>>
      stats_;
  eva::obs::MetricsRegistry registry_;
  eva::storage::ViewStore views_;
  eva::udf::UdfManager manager_;
  eva::udf::UdfRuntime runtime_;
  eva::SimClock clock_;
  eva::ingest::StreamIngestor ingestor_;
  std::unique_ptr<eva::lifecycle::ViewLifecycleManager> lifecycle_;
  int64_t query_seq_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_DRIVER_H_
