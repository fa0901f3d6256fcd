// Data pre-processing (§5.1): filter out the ambient low-rate losses every link exhibits
// (1e-4..1e-5 from transient congestion / bit errors) so that only failure-manifesting paths
// reach the localizer. The other half of §5.1, dropping observations from unhealthy servers
// (watchdog outliers), happens before any localizer runs: the ObservationStore leaves records
// from or towards a flagged server out of the totals it hands the diagnoser.
#ifndef SRC_LOCALIZE_PREPROCESS_H_
#define SRC_LOCALIZE_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "src/localize/observations.h"

namespace detector {

struct PreprocessOptions {
  // A valid path is "lossy" when its loss ratio exceeds this threshold (paper default 1e-3)
  // and it lost at least min_lost_packets. The count floor implements the paper's "threshold
  // on the number of packet losses in a period of time": one lost packet per window is ambient
  // noise (base loss ~1e-5/traversal), not a failure.
  double path_loss_ratio_threshold = 1e-3;
  int64_t min_lost_packets = 2;
};

// The per-path rule every localizer applies — PLL's scorer per component, Preprocess over a
// whole window: a path is valid when it carried probes, and lossy when it is valid and past
// both thresholds.
inline bool IsValidPath(const PathObservation& obs) { return obs.sent > 0; }
inline bool IsLossyPath(const PathObservation& obs, const PreprocessOptions& options) {
  return IsValidPath(obs) && obs.lost >= options.min_lost_packets &&
         obs.LossRatio() > options.path_loss_ratio_threshold;
}

struct PreprocessedObservations {
  std::vector<uint8_t> valid;  // per path: observation usable (sent > 0)
  std::vector<uint8_t> lossy;  // per path: valid && above the loss threshold
  int64_t num_lossy = 0;
  int64_t num_valid = 0;
};

// Applies the per-path rule to a whole window (the Tomo, OMP and SCORE baselines). Takes a view
// so the ObservationStore's running totals flow through without materializing an owned vector.
PreprocessedObservations Preprocess(ObservationView obs, const PreprocessOptions& options);

}  // namespace detector

#endif  // SRC_LOCALIZE_PREPROCESS_H_
