// Synthetic stand-in for the MEDIC disaster-image dataset (Alam et al.).
//
// MEDIC is 71k real social-media photos; Table 2 uses two of its tasks:
// damage severity (3 classes) and disaster type (4 classes). Real photos
// cannot be shipped here, so this generator produces textured scenes whose
// two semantic factors drive weak, noisy visual cues:
//
//  * disaster type selects a palette/texture program (fire glow blobs,
//    flood wave bands, earthquake rubble blocks, hurricane swirl streaks);
//  * damage severity controls the density of dark "debris" patches;
//  * pixel noise plus label noise make both tasks hard. At the defaults
//    (pixel_noise 0.35, label_noise 0.4) the 16x16 edge models memorise
//    the label noise while damage-severity test accuracy stays at chance;
//    bench_paper's Table 2 and loss-weighting scenarios lower them to 0.05
//    and 0.2 so that every model learns both tasks (DESIGN.md §2).
#pragma once

#include "data/dataset.hpp"
#include "tensor/rng.hpp"

namespace mtlsplit::data {

struct MedicSynthConfig {
  int64_t count = 2000;
  int64_t image_size = 20;
  float pixel_noise = 0.35f;  ///< additive Gaussian stddev
  float label_noise = 0.40f;  ///< per-label uniform flip probability
  uint64_t seed = 2;
};

inline constexpr int64_t kMedicDamageClasses = 3;    ///< T1 of Table 2
inline constexpr int64_t kMedicDisasterClasses = 4;  ///< T2 of Table 2

/// Tasks, in order: T1 = damage_severity (3), T2 = disaster_type (4).
MultiTaskDataset make_medic_synth(const MedicSynthConfig& cfg);

}  // namespace mtlsplit::data
