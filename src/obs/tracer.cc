#include "obs/tracer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/json_util.h"
#include "obs/metrics.h"

namespace eva::obs {

void Tracer::set_registry(MetricsRegistry* registry) {
  Counter* cell =
      registry == nullptr
          ? nullptr
          : registry->GetCounter(
                "eva_trace_spans_dropped_total",
                "Spans discarded after the tracer hit max_spans");
  dropped_counter_.store(cell, std::memory_order_release);
}

void Tracer::CountDrop() {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  Counter* cell = dropped_counter_.load(std::memory_order_acquire);
  if (cell != nullptr) cell->Increment();
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    index_ = other.index_;
    other.tracer_ = nullptr;
    other.index_ = -1;
  }
  return *this;
}

void Span::SetAttribute(const std::string& key, const std::string& value) {
  if (tracer_ != nullptr) tracer_->AddAttribute(index_, key, value);
}

void Span::SetAttribute(const std::string& key, double value) {
  if (tracer_ != nullptr) {
    tracer_->AddAttribute(index_, key, FormatJsonNumber(value));
  }
}

void Span::SetAttribute(const std::string& key, int64_t value) {
  if (tracer_ != nullptr) {
    tracer_->AddAttribute(index_, key, std::to_string(value));
  }
}

void Span::End() {
  if (tracer_ != nullptr) {
    tracer_->EndSpan(index_);
    tracer_ = nullptr;
    index_ = -1;
  }
}

double Tracer::SimNowMs() const {
  return clock_ != nullptr ? clock_->TotalMs() : 0.0;
}

double Tracer::WallNowUs() const {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Span Tracer::StartSpan(const std::string& name,
                       const std::string& category) {
  if (!enabled_) return Span();
  std::lock_guard<std::mutex> lock(mu_);
  // Driver-thread-only contract (see class comment): while spans are open,
  // all span creation must stay on the thread that opened the bottom of
  // the stack.
  assert(open_stack_.empty() ||
         stack_owner_ == std::this_thread::get_id());
  if (open_stack_.empty()) stack_owner_ = std::this_thread::get_id();
  if (spans_.size() >= max_spans_) {
    CountDrop();
    return Span();
  }
  SpanRecord rec;
  rec.name = name;
  rec.category = category.empty() ? name : category;
  rec.parent = CurrentLocked();
  rec.depth = rec.parent < 0
                  ? 0
                  : spans_[static_cast<size_t>(rec.parent)].depth + 1;
  rec.open = true;
  rec.sim_start_ms = SimNowMs();
  rec.sim_end_ms = rec.sim_start_ms;
  rec.wall_start_us = WallNowUs();
  rec.wall_end_us = rec.wall_start_us;
  int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(rec));
  open_stack_.push_back(index);
  return Span(this, index);
}

void Tracer::EndSpan(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= spans_.size()) return;
  SpanRecord& rec = spans_[static_cast<size_t>(index)];
  if (!rec.open) return;
  rec.open = false;
  rec.sim_end_ms = SimNowMs();
  rec.wall_end_us = WallNowUs();
  // Usually the innermost open span ends first; tolerate out-of-order
  // ends (e.g. a parent Span destructed while a child leaked) by erasing
  // wherever the index sits on the stack.
  auto it = std::find(open_stack_.rbegin(), open_stack_.rend(), index);
  if (it != open_stack_.rend()) {
    open_stack_.erase(std::next(it).base());
  }
}

int Tracer::AddCompletedSpan(const std::string& name,
                             const std::string& category, int parent,
                             double sim_start_ms, double sim_end_ms,
                             double wall_start_us, double wall_end_us) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    CountDrop();
    return -1;
  }
  SpanRecord rec;
  rec.name = name;
  rec.category = category.empty() ? name : category;
  rec.parent =
      parent >= 0 && static_cast<size_t>(parent) < spans_.size() ? parent
                                                                 : -1;
  rec.depth = rec.parent < 0
                  ? 0
                  : spans_[static_cast<size_t>(rec.parent)].depth + 1;
  rec.sim_start_ms = sim_start_ms;
  rec.sim_end_ms = sim_end_ms;
  rec.wall_start_us = wall_start_us;
  rec.wall_end_us = wall_end_us;
  spans_.push_back(std::move(rec));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddAttribute(int index, const std::string& key,
                          const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= spans_.size()) return;
  spans_[static_cast<size_t>(index)].attributes.emplace_back(key, value);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  open_stack_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children render beneath their parent in start order; build the child
  // lists once instead of scanning per node.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      roots.push_back(static_cast<int>(i));
    } else {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::string out;
  auto render = [&](auto&& self, int index, int depth) -> void {
    const SpanRecord& rec = spans_[static_cast<size_t>(index)];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    char line[160];
    std::snprintf(line, sizeof(line), "%s [%s] sim=%.3fms wall=%.1fus",
                  rec.name.c_str(), rec.category.c_str(), rec.sim_ms(),
                  rec.wall_us());
    out += line;
    for (const auto& [k, v] : rec.attributes) {
      out += ' ';
      out += k;
      out += '=';
      out += v;
    }
    if (rec.open) out += " (open)";
    out += '\n';
    for (int child : children[static_cast<size_t>(index)]) {
      self(self, child, depth + 1);
    }
  };
  for (int root : roots) render(render, root, 0);
  const int64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    out += "(" + std::to_string(dropped) + " spans dropped)\n";
  }
  return out;
}

std::string Tracer::RenderChromeTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& rec = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    AppendJsonString(&out, rec.name);
    out += ",\"cat\":";
    AppendJsonString(&out, rec.category);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    out += FormatJsonNumber(rec.sim_start_ms * 1000.0);
    out += ",\"dur\":";
    out += FormatJsonNumber(rec.sim_ms() * 1000.0);
    out += ",\"args\":{\"wall_us\":";
    out += FormatJsonNumber(rec.wall_us());
    for (const auto& [k, v] : rec.attributes) {
      out += ',';
      AppendJsonString(&out, k);
      out += ':';
      AppendJsonString(&out, v);
    }
    out += "}}";
  }
  out += "]";
  return out;
}

}  // namespace eva::obs
