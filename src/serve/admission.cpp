#include "serve/admission.hpp"

#include <stdexcept>
#include <utility>

namespace moldsched {

AdmissionPolicy::~AdmissionPolicy() = default;

int AdmissionPolicy::classify(const EngineRequest& /*request*/) const noexcept {
  return 0;
}

int AdmissionPolicy::classify_stream(
    const StreamConfig& /*config*/) const noexcept {
  return 0;
}

std::vector<LaneSpec> FifoAdmission::lanes() const {
  return {LaneSpec{}};  // one unbounded default lane
}

WeightedLanesAdmission::WeightedLanesAdmission(std::vector<LaneSpec> lanes,
                                               int default_lane)
    : lanes_(std::move(lanes)), default_lane_(default_lane) {
  if (lanes_.empty()) {
    throw std::invalid_argument("WeightedLanesAdmission: no lanes");
  }
  for (const auto& lane : lanes_) {
    if (lane.weight < 1) {
      throw std::invalid_argument("WeightedLanesAdmission: weight < 1");
    }
  }
  if (default_lane_ < 0 ||
      default_lane_ >= static_cast<int>(lanes_.size())) {
    throw std::invalid_argument(
        "WeightedLanesAdmission: default_lane out of range");
  }
}

std::vector<LaneSpec> WeightedLanesAdmission::lanes() const { return lanes_; }

int WeightedLanesAdmission::classify(
    const EngineRequest& /*request*/) const noexcept {
  return default_lane_;
}

int WeightedLanesAdmission::classify_stream(
    const StreamConfig& /*config*/) const noexcept {
  return default_lane_;
}

}  // namespace moldsched
