// SynthVision — procedural CIFAR substitute (see DESIGN.md §3).
//
// The paper evaluates on CIFAR-10/100, which are not available offline.
// SynthVision generates class-conditional RGB textures that exercise the same
// conv/BN/residual training pipeline: each class owns a seeded generator
// producing a mixture of oriented sinusoidal gratings and Gaussian blobs with
// class-specific frequencies, orientations, palettes and blob layouts; each
// sample adds per-sample phase/position jitter, global gain, and pixel noise,
// and the finished dataset is normalized per channel.
// Classes are separable but require non-linear features (a linear probe does
// markedly worse than a CNN), so accuracy-vs-fault-rate curves show the same
// qualitative collapse-and-rescue shape as real CIFAR.
#pragma once

#include <cstdint>
#include <memory>

#include "src/data/dataset.hpp"

namespace ftpim {

struct SynthVisionConfig {
  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;  ///< square side
  std::int64_t samples = 1024;
  std::uint64_t seed = 7;        ///< class prototypes derive from this
  float noise_std = 0.6f;        ///< per-pixel Gaussian noise
};

/// Generates a dataset. Train/test splits should use the same `seed` (same
/// class prototypes) but different `sample_stream` values so the samples
/// differ while the task stays identical.
std::unique_ptr<InMemoryDataset> make_synthvision(const SynthVisionConfig& config,
                                                  std::uint64_t sample_stream);

}  // namespace ftpim
