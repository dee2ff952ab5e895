// Per-thread scratch arenas for kernel workspaces (DESIGN.md §7).
//
// Hot kernels (im2col-lowered convolution, transposed GEMM operands) need
// large scratch buffers whose size repeats call after call. Allocating a
// fresh Tensor per sample per call dominated the seed profile; a Workspace
// instead hands out slot-keyed buffers that persist for the lifetime of the
// thread and only ever grow.
//
// Rules:
//  * tls_workspace() is private to the calling thread — safe inside
//    parallel_for chunks, and reused across calls on the same thread.
//  * Slots are coarse, per-purpose keys (see Slot); a kernel may hold at
//    most one live buffer per slot, so two kernels that nest (conv calling
//    GEMM) must use different slots.
//  * Buffers are NOT zeroed on acquisition; kernels that need zeroed
//    scratch clear the prefix they use.
#pragma once

#include <cstdint>
#include <vector>

namespace mtlsplit::runtime {

class Workspace {
 public:
  /// Scratch-buffer purposes. One live buffer per slot per thread.
  enum Slot : int {
    kIm2col = 0,      ///< conv patch matrix
    kGemmOperand,     ///< transposed/packed GEMM input
    kConvScratch,     ///< conv backward column gradients
    kReduce,          ///< per-chunk partial reductions
    kDepthwise,       ///< depthwise channel block, lane-interleaved
    kIm2colPlane,     ///< im2col's zero-bordered input plane
    kSlotCount
  };

  /// A float buffer with capacity >= n for the given slot. Contents are
  /// unspecified; valid until the next request for the same slot on this
  /// thread.
  float* floats(Slot slot, int64_t n);

  /// Current capacity of a slot, in floats (for tests / introspection).
  int64_t capacity(Slot slot) const;

 private:
  std::vector<float> slots_[kSlotCount];
};

/// The calling thread's arena (thread_local, lazily constructed).
Workspace& tls_workspace();

}  // namespace mtlsplit::runtime
