#pragma once
// Tiled & vectorized dense kernel library -- the compute floor under every
// hot path (nn/linear, nn/qlinear, nn/attention, nn/encoder and the
// per-slot workspaces of runtime/batch_runner).
//
// The GEMM family is blocked three ways: the reduction dimension in K-tiles
// that keep a packed panel of B resident in L1, output columns in
// register-width panels (packed contiguously, zero-padded to the panel
// width so the micro-kernel never branches on a column tail), and output
// rows in register tiles.  The micro-kernel accumulates an MR x NR tile of
// C entirely in registers.  The float kernels are portable: a 4 x 8 tile
// held in GNU vector extensions, which auto-vectorizes on the baseline ISA
// (a plain scalar tile remains for other compilers).  There is one build
// and no wider float variant, because an FMA kernel would round
// differently.
//
// The int8 GEMM runs the same blocking on 16-bit multiply-add: each K-tile
// of W is packed into column panels of K-pairs {w(p,j), w(p+1,j)} widened
// to int16, each activation pair {x(i,p), x(i,p+1)} is broadcast as one
// int32, and one pmaddwd yields x(i,p)w(p,j) + x(i,p+1)w(p+1,j) per int32
// lane.  Its micro-kernel ISA is picked once, at run time, from what the
// CPU supports: 256-bit AVX-512VL VNNI or AVX-VNNI (vpdpwssd), AVX2
// (vpmaddwd plus add), SSE2 (pmaddwd), or plain GNU vector arithmetic
// (a scalar loop on other compilers).  Integer sums are exact, so every
// variant gives the same bits.  `KernelArchName()` names the dispatched
// int8 ISA, and every bench's `host.kernel_arch` stamp records it.
//
// Accumulation order differs from the naive triple loop, so float results
// agree with the scalar reference only to rounding (compare with relative
// tolerance; tests/kernels_test.cpp uses 1e-4); integer results are exact.
// Every kernel is deterministic: the same inputs produce bit-identical
// outputs on every call, with or without a reused scratch, which is what
// keeps the batched runtime's exact batch-vs-sequential tests meaningful.

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string_view>
#include <vector>

#include "tensor/matrix.hpp"

namespace latte {

/// std::allocator with 64-byte (cache-line) alignment, for the int8 pack
/// buffers: a packed panel load then never splits a cache line and may
/// use aligned loads.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }
  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Reusable packing scratch for the tiled GEMM family.  Lease one from a
/// runtime Workspace (`ws.gemm()`) on hot paths; at steady-state shapes the
/// pack buffers stop growing and GEMM calls allocate nothing.
struct GemmScratch {
  std::vector<float> bpack;  ///< packed B panels for the current K-tile
  /// Int8GemmInto: int16 K-pair panels of W for the current K-tile (at most
  /// 128 rows, so 0.75 MiB at a 3072-wide W) ...
  std::vector<std::int16_t, CacheAlignedAllocator<std::int16_t>> wpack;
  /// ... and the int32 activation pairs of the current row tile.
  std::vector<std::int32_t, CacheAlignedAllocator<std::int32_t>> xpack;
  /// QuantizedLinear (nn/qlinear.hpp): the int8 codes of its input and the
  /// int32 product before dequantization.
  MatrixI8 xcodes;
  MatrixI32 acc;

  std::size_t CapacityBytes() const {
    return bpack.capacity() * sizeof(float) +
           wpack.capacity() * sizeof(std::int16_t) +
           xpack.capacity() * sizeof(std::int32_t) +
           xcodes.capacity() * sizeof(std::int8_t) +
           acc.capacity() * sizeof(std::int32_t);
  }
};

/// The calling thread's own GemmScratch, for call sites that have no
/// Workspace (the scratch-less GEMM overloads use it).
GemmScratch& ThreadLocalGemmScratch();

/// ISA of the int8 GEMM micro-kernel this host runs (the last entry of
/// Int8GemmIsas()): "avx512vnni", "avxvnni", "avx2", "sse2" or "portable".
const char* KernelArchName();

/// The int8 GEMM micro-kernel variants this host can run, narrowest first:
/// "portable" always, then on x86 "sse2", "avx2", "avxvnni" and
/// "avx512vnni" as the CPU supports them.  Int8GemmInto runs the last.
std::vector<const char*> Int8GemmIsas();

/// C = A * B.  A is (n x k), B is (k x m); c is resized to (n x m) and
/// fully overwritten.  Throws on shape mismatch.  `c` must not alias `a`
/// or `b`.
void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                GemmScratch& scratch);

/// As above with an internal thread-local scratch (thin-shim convenience
/// for call sites that have no Workspace).
void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// C = A * B[:, col0:col1): a column slice of the product (the
/// escalation probe projects one head this way).  A is (n x k), B is
/// (k x m); c is resized to (n x col1-col0) and fully overwritten.  Each
/// output element is reduced in exactly the K-tile order of the full GEMM
/// (packing a column window shifts panel boundaries, never the reduction
/// order), so the result is bit-identical to the corresponding columns of
/// MatMulInto.  Throws on shape mismatch or an out-of-range column window.
void MatMulColumnsInto(const MatrixF& a, const MatrixF& b, std::size_t col0,
                       std::size_t col1, MatrixF& c, GemmScratch& scratch);

/// C = A * B^T.  A is (n x d), B is (m x d); c is resized to (n x m) and
/// fully overwritten.  The natural layout for attention scores S = Q K^T.
/// Throws on shape mismatch.  `c` must not alias `a` or `b`.
void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                  GemmScratch& scratch);

/// As above with an internal thread-local scratch.
void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// Exact int8 GEMM with int32 accumulation: out = x * w where x is
/// (n x k) codes and w is (k x m) codes.  The packed K-pair kernel sums
/// two int8 x int8 products per 16-bit multiply-add; a pair sum is at most
/// 2 * 128^2 = 32768, so it cannot overflow its int32 lane, and int32
/// addition is associative, so every output equals the naive loop's bit
/// for bit.  out is resized to (n x m) and fully overwritten.  Throws on
/// shape mismatch.
void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out,
                  GemmScratch& scratch);

/// As above with the calling thread's scratch.
void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out);

/// Int8GemmInto on one named variant of Int8GemmIsas(), so tests and
/// bench_kernels can check every variant against the scalar loop.  Throws
/// std::invalid_argument for an ISA this host cannot run.
void Int8GemmIntoIsa(std::string_view isa, const MatrixI8& x,
                     const MatrixI8& w, MatrixI32& out, GemmScratch& scratch);

/// Dot product with unrolled partial sums (reordered accumulation;
/// deterministic).  a and b must have equal length.
float DotProduct(std::span<const float> a, std::span<const float> b);

}  // namespace latte
