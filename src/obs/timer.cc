#include "obs/timer.h"

namespace slicetuner {
namespace obs {

void Span::RecordStage(std::string_view stage, uint64_t ns) {
  for (auto& entry : stages_) {
    if (entry.first == stage) {
      entry.second += ns;
      return;
    }
  }
  stages_.emplace_back(stage, ns);
}

json::Value Span::ToJson(uint64_t total_ns) const {
  json::Value out = json::Value::Object();
  out.Set("name", name_);
  out.Set("total_ms", NanosToMillis(total_ns));
  json::Value stages = json::Value::Object();
  for (const auto& entry : stages_) {
    stages.Set(entry.first + "_ms", NanosToMillis(entry.second));
  }
  out.Set("stages", std::move(stages));
  return out;
}

}  // namespace obs
}  // namespace slicetuner
