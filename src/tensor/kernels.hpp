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
// and no wider float GEMM, because an FMA kernel would round differently.
//
// The elementwise float ops are the exception: GELU, quantize and the int8
// linear layer's dequant epilogue each have one lane-generic body
// (tensor/lanes.hpp), run four lanes wide on every host and sixteen wide
// under target("avx512f") when the CPU has AVX-512F (ElementwiseIsas).
// Each lane does one element's scalar arithmetic in the same order, and
// the files that hold these bodies are compiled with -ffp-contract=off, so
// no width fuses a multiply-add: every body gives the same bits.  The body
// is picked once, by the same run-time CPU check as the int8 kernel.
//
// The int8 GEMM runs the same blocking on integer multiply-add, over W
// packed into one of two int8 panel layouts.  The K-pair layout stores
// {w(p,j), w(p+1,j)} and widens it to int16 in registers: one pmaddwd
// yields x(i,p)w(p,j) + x(i,p+1)w(p+1,j) per int32 lane, for a broadcast
// activation pair.  The K-quad layout stores {w(p..p+3, j)} for vpdpbusd,
// which multiplies unsigned by signed bytes four at a time: the activation
// codes are offset by +128, and each output starts from -128 x its column
// sum of W, stored with the pack.  The micro-kernel ISA is picked once, at
// run time, from what the CPU supports: 512-bit AVX-512 VNNI on 16-column
// K-quad panels or 256-bit AVX-VNNI on 8-column ones (vpdpbusd), AVX2
// (K-pairs, vpmaddwd plus add), SSE2 (pmaddwd), or plain GNU vector
// arithmetic (a scalar loop on other compilers).
// Integer sums are exact up to k = kInt8GemmMaxK, so every variant gives
// the same bits.  `KernelArchName()` names the dispatched int8 ISA, and
// every bench's `host.kernel_arch` stamp records it.  A weight matrix that
// is multiplied many times is packed once, as PackedInt8Weights (the int8
// linear layer does so at load); Int8GemmInto on a row-major W packs it
// per call into the scratch, then runs the same sweep.
//
// Accumulation order differs from the naive triple loop, so float results
// agree with the scalar reference only to rounding (compare with relative
// tolerance; tests/kernels_test.cpp uses 1e-4); integer results are exact.
// Every kernel is deterministic: the same inputs produce bit-identical
// outputs on every call, with or without a reused scratch, which is what
// keeps the batched runtime's exact batch-vs-sequential tests meaningful.

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "tensor/matrix.hpp"

namespace latte {

/// std::allocator with 64-byte (cache-line) alignment, for the int8 pack
/// buffers: a packed panel load then never splits a cache line and may
/// use aligned loads.  resize() default-initializes, so growing a buffer
/// that its pack routine overwrites whole costs no zero fill.
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
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
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
  /// Int8GemmInto on a row-major W (At-Sel's per-call key codes): W packed
  /// whole, in the layout of the variant that runs (about k x m bytes) ...
  std::vector<std::int8_t, CacheAlignedAllocator<std::int8_t>> wpack;
  /// ... and, for every int8 product, the int32 activation steps of the
  /// current row tile.
  std::vector<std::int32_t, CacheAlignedAllocator<std::int32_t>> xpack;
  /// QuantizedLinear (nn/qlinear.hpp): the int8 codes of its input and the
  /// int32 product before dequantization.
  MatrixI8 xcodes;
  MatrixI32 acc;

  std::size_t CapacityBytes() const {
    return bpack.capacity() * sizeof(float) +
           wpack.capacity() * sizeof(std::int8_t) +
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

/// The elementwise float bodies: GELU (GeluInPlace), quantize (Quantize,
/// QuantizeInto) and the int8 linear layer's dequant epilogue
/// (DequantizeInto).  Narrowest first; every body gives the same bits.
enum class ElementwiseIsa {
  kPortable,  ///< four lanes on the baseline ISA (GNU vectors), every host
  kAvx512f,   ///< sixteen lanes under target("avx512f"), x86 only
};

/// "portable" or "avx512f".
const char* ElementwiseIsaName(ElementwiseIsa isa);

/// The elementwise bodies this host can run, narrowest first: kPortable
/// always, then kAvx512f when the CPU supports AVX-512F.
const std::vector<ElementwiseIsa>& ElementwiseIsas();

/// The body the library runs: the last of ElementwiseIsas(), picked once.
ElementwiseIsa DispatchedElementwiseIsa();

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

/// Largest reduction extent the int8 GEMM accepts.  At k <= 2^16 no int32
/// intermediate of any variant can overflow: a product is at most 255 x 128
/// in magnitude (the +128-offset K-quads) and |sum| <= 255 * 128 * k < 2^31.
/// Past it the exact result may not fit int32 (k = 131072 codes of -128
/// sum to 2^31), so every entry point throws std::invalid_argument.
inline constexpr std::size_t kInt8GemmMaxK = 65536;

/// Exact int8 GEMM with int32 accumulation: out = x * w where x is
/// (n x k) codes and w is (k x m) codes.  Packs w into the scratch for the
/// dispatched variant, then runs its sweep; every output equals the naive
/// loop's bit for bit.  out is resized to (n x m) and fully overwritten.
/// Throws std::invalid_argument on shape mismatch or k > kInt8GemmMaxK.
void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out,
                  GemmScratch& scratch);

/// As above with the calling thread's scratch.
void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out);

/// Int8GemmInto on one named variant of Int8GemmIsas() (W packed for that
/// variant), so tests and bench_kernels can check every variant against
/// the scalar loop.  Throws std::invalid_argument for an ISA this host
/// cannot run, and as Int8GemmInto.
void Int8GemmIntoIsa(std::string_view isa, const MatrixI8& x,
                     const MatrixI8& w, MatrixI32& out, GemmScratch& scratch);

/// An int8 weight matrix W (k x m), packed once into the panel layout of
/// one int8 micro-kernel variant: K-pairs or K-quads of int8 in panels 8
/// or 16 columns wide, zero-padded to whole panel groups, plus the K-quad
/// column bias.  It replaces the row-major codes, at about the same bytes
/// (k x m, plus the padding and 4 m bytes of bias), and is read-only once
/// built, so any number of threads may multiply by it at once.  The pack
/// records its variant, and only that variant's sweep ever reads it.
class PackedInt8Weights {
 public:
  PackedInt8Weights() = default;  ///< 0 x 0

  /// Packs w for the dispatched variant (KernelArchName()).  Throws
  /// std::invalid_argument for k > kInt8GemmMaxK.
  explicit PackedInt8Weights(const MatrixI8& w);

  /// Packs w for a named variant of Int8GemmIsas().  Throws
  /// std::invalid_argument for an ISA this host cannot run, and as above.
  PackedInt8Weights(std::string_view isa, const MatrixI8& w);

  std::size_t rows() const { return rows_; }  ///< k
  std::size_t cols() const { return cols_; }  ///< m
  /// The variant the pack was made for, and the one that multiplies it.
  const char* isa() const;
  /// Resident bytes of the packed panels and bias.
  std::size_t bytes() const { return data_.size(); }

 private:
  friend void Int8GemmInto(const MatrixI8& x, const PackedInt8Weights& w,
                           MatrixI32& out, GemmScratch& scratch);

  std::size_t variant_ = 0;  // index into the kernel's variant table
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t, CacheAlignedAllocator<std::int8_t>> data_;
};

/// out = x * w on weights packed once, by the variant w was packed for;
/// the same bits as Int8GemmInto on the row-major codes.  Only the
/// activation steps go to `scratch` (xpack), so at steady-state shapes a
/// call allocates nothing but `out`'s growth.  Throws
/// std::invalid_argument on shape mismatch.
void Int8GemmInto(const MatrixI8& x, const PackedInt8Weights& w,
                  MatrixI32& out, GemmScratch& scratch);

/// Dot product with unrolled partial sums (reordered accumulation;
/// deterministic).  a and b must have equal length.
float DotProduct(std::span<const float> a, std::span<const float> b);

/// DotProduct(a, b[r]) for four rows at once: each result is the same
/// float DotProduct returns (the same partial sums, in the same order),
/// and the four independent chains hide the add latency that bounds one.
/// Throws std::invalid_argument unless every b[r] has a's length.
std::array<float, 4> DotProducts(
    std::span<const float> a, const std::array<std::span<const float>, 4>& b);

}  // namespace latte
