#include "fault/fault_injector.h"

#include <cstdlib>

#include "common/num_parse.h"

namespace eva::fault {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

Result<FaultAction> ParseAction(const std::string& name) {
  if (name == "crash") return FaultAction::kCrash;
  if (name == "crash-exit") return FaultAction::kCrashExit;
  if (name == "fail") return FaultAction::kFail;
  if (name == "shortwrite") return FaultAction::kShortWrite;
  if (name == "error") return FaultAction::kError;
  return Status::InvalidArgument("unknown fault action: " + name);
}

// occ := N | N-M | N- | '*'
Status ParseOccurrence(const std::string& occ, FaultRule* rule) {
  if (occ == "*") {
    rule->first = 1;
    rule->last = -1;
    return Status::OK();
  }
  size_t dash = occ.find('-');
  if (dash == std::string::npos) {
    int64_t n = 0;
    if (!ParseInt64(occ, &n) || n < 1) {
      return Status::InvalidArgument("bad fault occurrence: " + occ);
    }
    rule->first = rule->last = n;
    return Status::OK();
  }
  int64_t first = 0;
  if (!ParseInt64(occ.substr(0, dash), &first) || first < 1) {
    return Status::InvalidArgument("bad fault occurrence: " + occ);
  }
  rule->first = first;
  std::string rest = occ.substr(dash + 1);
  if (rest.empty()) {
    rule->last = -1;
    return Status::OK();
  }
  int64_t last = 0;
  if (!ParseInt64(rest, &last) || last < first) {
    return Status::InvalidArgument("bad fault occurrence: " + occ);
  }
  rule->last = last;
  return Status::OK();
}

}  // namespace

Result<FaultSchedule> ParseFaultSchedule(const std::string& text) {
  FaultSchedule schedule;
  schedule.text = Trim(text);
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(';', start);
    std::string entry = Trim(end == std::string::npos
                                 ? text.substr(start)
                                 : text.substr(start, end - start));
    if (!entry.empty()) {
      size_t at = entry.find('@');
      if (at == std::string::npos) {
        return Status::InvalidArgument(
            "fault entry missing '@pattern': " + entry);
      }
      FaultRule rule;
      EVA_ASSIGN_OR_RETURN(rule.action, ParseAction(Trim(entry.substr(0, at))));
      std::string rest = Trim(entry.substr(at + 1));
      size_t hash = rest.rfind('#');
      if (hash != std::string::npos) {
        EVA_RETURN_IF_ERROR(ParseOccurrence(Trim(rest.substr(hash + 1)), &rule));
        rest = Trim(rest.substr(0, hash));
      }
      if (rest.empty()) {
        return Status::InvalidArgument("empty fault point pattern: " + entry);
      }
      rule.pattern = rest;
      schedule.rules.push_back(std::move(rule));
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return schedule;
}

bool GlobMatch(const std::string& pattern, const std::string& text) {
  // Iterative '*' matcher with backtracking to the last star.
  size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

FaultAction FaultInjector::At(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (halted_) return FaultAction::kCrash;
  int64_t occurrence = ++counts_[point];
  FaultAction action = FaultAction::kNone;
  for (const FaultRule& rule : schedule_.rules) {
    if (occurrence < rule.first) continue;
    if (rule.last >= 0 && occurrence > rule.last) continue;
    if (!GlobMatch(rule.pattern, point)) continue;
    action = rule.action;
    break;
  }
  if (recording_) hits_.push_back({point, occurrence, action});
  if (action != FaultAction::kNone) ++fired_;
  if (action == FaultAction::kCrashExit) {
    // Real process death for shell kill-and-recover demos. In-process
    // tests use kCrash, which halts the injector instead.
    std::_Exit(137);
  }
  if (action == FaultAction::kCrash) halted_ = true;
  return action;
}

void FaultInjector::SetSchedule(FaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_ = std::move(schedule);
  counts_.clear();
  hits_.clear();
  halted_ = false;
  fired_ = 0;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.clear();
  hits_.clear();
  halted_ = false;
  fired_ = 0;
}

}  // namespace eva::fault
