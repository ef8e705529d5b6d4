#ifndef EVA_UDF_UDF_RUNTIME_H_
#define EVA_UDF_UDF_RUNTIME_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "vision/models.h"
#include "vision/synthetic_video.h"

namespace eva::udf {

/// Binds catalog UDF definitions to their simulated model implementations
/// and exposes a uniform evaluation interface to the execution engine.
/// Models are instantiated lazily from the catalog on first use.
///
/// Thread-safe: the lazy-instantiation maps are mutex-guarded, so any
/// thread may resolve a model (the driver thread does today). The
/// returned model pointers are stable for the runtime's lifetime and the
/// models themselves are immutable (pure functions of (name, frame, obj)),
/// so evaluation after lookup needs no locking.
class UdfRuntime {
 public:
  explicit UdfRuntime(const catalog::Catalog* catalog) : catalog_(catalog) {}

  Result<const vision::DetectorModel*> Detector(const std::string& name);
  Result<const vision::ClassifierModel*> Classifier(const std::string& name);
  Result<const vision::FilterModel*> Filter(const std::string& name);

  /// Catalog definition lookup (kind, costs) without instantiating.
  Result<catalog::UdfDef> Def(const std::string& name) const;

 private:
  const catalog::Catalog* catalog_;
  std::mutex mu_;  // guards the three lazy-instantiation maps
  std::map<std::string, std::unique_ptr<vision::DetectorModel>> detectors_;
  std::map<std::string, std::unique_ptr<vision::ClassifierModel>>
      classifiers_;
  std::map<std::string, std::unique_ptr<vision::FilterModel>> filters_;
};

}  // namespace eva::udf

#endif  // EVA_UDF_UDF_RUNTIME_H_
