#include "layer_driver.h"

#include <variant>

#include "exec/operators.h"
#include "parser/parser.h"
#include "stats.h"

namespace perfbench {

using eva::Result;
using eva::Status;

LayerDriver::LayerDriver(const eva::engine::EngineOptions& options,
                         std::shared_ptr<eva::catalog::Catalog> catalog)
    : options_(options),
      catalog_(std::move(catalog)),
      runtime_(catalog_.get()),
      ingestor_(catalog_.get(), &clock_) {
  // The engine constructor's storage and lifecycle wiring, verbatim.
  manager_.set_symbolic_fastpath(options_.optimizer.symbolic_fastpath);
  views_.set_segment_frames(options_.segment_frames);
  views_.set_build_options(
      {options_.segment_compression, options_.bloom_bits_per_key});
  eva::lifecycle::LifecycleOptions lopts;
  lopts.storage_budget_bytes = options_.storage_budget_bytes;
  lopts.policy = eva::lifecycle::ParseEvictionPolicy(options_.eviction_policy)
                     .ValueOr(eva::lifecycle::EvictionPolicyKind::kCostBenefit);
  lopts.admission_enabled = options_.lifecycle_admission;
  lopts.symbolic_budget = options_.optimizer.budget;
  lifecycle_ = std::make_unique<eva::lifecycle::ViewLifecycleManager>(
      lopts, &views_, &manager_, catalog_.get(), &registry_);
}

Status LayerDriver::AddVideo(const eva::catalog::VideoInfo& info) {
  if (!catalog_->HasVideo(info.name)) {
    EVA_RETURN_IF_ERROR(catalog_->AddVideo(info));
  }
  auto video = std::make_unique<eva::vision::SyntheticVideo>(info);
  stats_[info.name] = std::make_unique<eva::storage::StatisticsManager>(*video);
  videos_[info.name] = std::move(video);
  return Status::OK();
}

Status LayerDriver::AddStream(const eva::catalog::VideoInfo& info,
                              const eva::ingest::StreamOptions& opts) {
  EVA_RETURN_IF_ERROR(ingestor_.Register(info, opts));
  // Frames and statistics at full length; the catalog horizon gates what
  // queries see (EvaEngine::RegisterStream).
  eva::catalog::VideoInfo full = info;
  full.streaming = true;
  full.total_frames = opts.total_frames;
  full.num_frames = opts.total_frames;
  auto video = std::make_unique<eva::vision::SyntheticVideo>(full);
  stats_[info.name] = std::make_unique<eva::storage::StatisticsManager>(*video);
  videos_[info.name] = std::move(video);
  return Status::OK();
}

Status LayerDriver::Ingest(const std::string& source, int64_t frames) {
  return ingestor_.IngestTick(source, frames).status();
}

Result<DriverQuery> LayerDriver::Run(const std::string& sql,
                                     int64_t session_id) {
  DriverQuery out;
  const double t0 = NowMs();
  Result<eva::parser::Statement> parsed = eva::parser::ParseStatement(sql);
  const double t1 = NowMs();
  if (!parsed.ok()) return parsed.status();
  auto* stmt = std::get_if<eva::parser::SelectStatement>(&parsed.value());
  if (stmt == nullptr) {
    return Status::InvalidArgument("layer driver replays SELECTs only: " +
                                   sql);
  }
  auto stats_it = stats_.find(stmt->table);
  if (stats_it == stats_.end()) {
    return Status::BindError("video not loaded: " + stmt->table);
  }
  lifecycle_->set_current_session(session_id);
  out.metrics.session_id = session_id;
  const eva::SimClock::Snapshot before = clock_.TakeSnapshot();
  const double symbolic0 = manager_.symbolic_wall_us();

  eva::optimizer::Optimizer opt(options_.optimizer, catalog_.get(), &manager_,
                                stats_it->second.get(), options_.costs,
                                &views_, nullptr, &registry_,
                                lifecycle_.get());
  const double t2 = NowMs();
  Result<eva::optimizer::OptimizedQuery> optimized_or = opt.Optimize(*stmt);
  const double t3 = NowMs();
  if (!optimized_or.ok()) return optimized_or.status();
  eva::optimizer::OptimizedQuery optimized = optimized_or.MoveValue();
  clock_.Charge(eva::CostCategory::kOptimize, optimized.optimizer_ms);
  out.metrics.optimizer_ms = optimized.optimizer_ms;
  out.metrics.symbolic_cache_hits = optimized.report.symbolic_cache_hits;
  out.metrics.symbolic_cache_misses = optimized.report.symbolic_cache_misses;
  out.metrics.symbolic_cells_pruned = optimized.report.symbolic_cells_pruned;

  eva::exec::ExecContext ctx;
  ctx.clock = &clock_;
  ctx.views = &views_;
  ctx.catalog = catalog_.get();
  ctx.udfs = &runtime_;
  ctx.video = videos_.at(stmt->table).get();
  ctx.costs = options_.costs;
  ctx.metrics = &out.metrics;
  ctx.batch_size = options_.batch_size;
  ctx.query_id = ++query_seq_;
  ctx.session_id = session_id;
  ctx.morsel_rows = options_.morsel_rows;
  ctx.udf_spin_us = options_.udf_spin_us;
  ctx.vectorized_filter = options_.vectorized_filter;
  ctx.zone_map_skipping = options_.zone_map_skipping;
  ctx.obs_registry = &registry_;
  ctx.udf_max_retries = options_.udf_max_retries;
  ctx.udf_retry_backoff_ms = options_.udf_retry_backoff_ms;
  const double t4 = NowMs();
  Result<eva::Batch> executed = eva::exec::ExecutePlan(optimized.plan, &ctx);
  const double t5 = NowMs();
  if (!executed.ok()) return executed.status();
  out.batch = executed.MoveValue();
  out.metrics.breakdown = clock_.TakeSnapshot() - before;

  const double t6 = NowMs();
  lifecycle_->ObserveQuery(out.metrics);
  (void)lifecycle_->EnforceBudget(ctx.query_id);
  const double t7 = NowMs();

  out.layers.parse_us = (t1 - t0) * 1000.0;
  out.layers.optimize_ms = t3 - t2;
  out.layers.execute_ms = t5 - t4;
  out.layers.lifecycle_ms = t7 - t6;
  out.layers.symbolic_ms = (manager_.symbolic_wall_us() - symbolic0) / 1000.0;
  return out;
}

}  // namespace perfbench
