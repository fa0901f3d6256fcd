// End-to-end probe observations: per probe path, packets sent and packets lost within one
// aggregation window (30 s in the paper). Indexed by the PathId of the probe matrix.
#ifndef SRC_LOCALIZE_OBSERVATIONS_H_
#define SRC_LOCALIZE_OBSERVATIONS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace detector {

struct PathObservation {
  int64_t sent = 0;
  int64_t lost = 0;

  double LossRatio() const {
    return sent == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(sent);
  }
};

using Observations = std::vector<PathObservation>;

// Non-owning view over a window's observations — what the preprocessing/localization stages
// consume, so the ObservationStore's running totals flow through without copying.
using ObservationView = std::span<const PathObservation>;

}  // namespace detector

#endif  // SRC_LOCALIZE_OBSERVATIONS_H_
