#include "core/candidate_selector.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/matmul.hpp"

namespace latte {

namespace {

// Histogram banks per row: consecutive keys count into different banks, so
// a run of equal scores (few bins at 1 bit) does not serialize on one
// counter.
constexpr std::size_t kBanks = 4;

#if defined(__GNUC__) || defined(__clang__)
// Four int32 lanes in GNU vector extensions (SSE2 on x86-64, plain
// arithmetic elsewhere), for the compaction below.
using Lanes = std::int32_t __attribute__((vector_size(16)));

// Bit l set iff lane l of a comparison result is true (all ones).
inline unsigned LaneMask(Lanes cmp) {
#if defined(__SSE2__)
  using Floats = float __attribute__((vector_size(16)));
  return static_cast<unsigned>(
      __builtin_ia32_movmskps(reinterpret_cast<Floats>(cmp)));
#else
  const Lanes bit = cmp & Lanes{1, 2, 4, 8};
  return static_cast<unsigned>(bit[0] | bit[1] | bit[2] | bit[3]);
#endif
}

// For each 4-lane mask, the set lanes' positions packed to the front, and
// how many there are.
struct LanePack {
  std::int32_t lanes[16][4];
  std::uint32_t count[16];
  constexpr LanePack() : lanes{}, count{} {
    for (unsigned m = 0; m < 16; ++m) {
      for (std::int32_t l = 0; l < 4; ++l) {
        if ((m >> l) & 1u) lanes[m][count[m]++] = l;
      }
    }
  }
};
constexpr LanePack kLanePack;
#endif

// Writes the indices of the keys scoring at least `floor` to keep, in key
// order, without a branch per key: four keys at a time, the comparison's
// lane mask picks their packed positions, and one 16-byte store writes
// them (keep has room: at most j keys precede key j).  Returns the count.
std::size_t KeepAtLeast(std::span<const std::int32_t> row,
                        std::int32_t floor, std::uint32_t* keep) {
  const std::size_t n = row.size();
  std::size_t kept = 0, j = 0;
#if defined(__GNUC__) || defined(__clang__)
  // The codes bound every score, so floor - 1 cannot overflow.
  const Lanes below = Lanes{} + (floor - 1);
  for (; j + 4 <= n; j += 4) {
    Lanes x;
    std::memcpy(&x, row.data() + j, sizeof(x));
    const unsigned m = LaneMask(x > below);
    Lanes at;
    std::memcpy(&at, kLanePack.lanes[m], sizeof(at));
    at += static_cast<std::int32_t>(j);
    std::memcpy(keep + kept, &at, sizeof(at));
    kept += kLanePack.count[m];
  }
#endif
  for (; j < n; ++j) {
    keep[kept] = static_cast<std::uint32_t>(j);
    kept += row[j] >= floor ? 1 : 0;
  }
  return kept;
}

// Step 4 for one query row: the top kk of `row` (the row's valid keys, kk
// >= 1) in the streaming sorter's order, written to idx/val.  Bin b counts
// the keys scoring hi - b; an exclusive prefix sum over the bins, stopped
// at the bin that holds the kk-th key (the cut), gives each bin its first
// output slot.  Only the keys at or above the cut are then placed, in key
// order, so equal scores keep index order.
void SelectRow(std::span<const std::int32_t> row, std::size_t kk,
               std::size_t max_range, SelectScratch& s, std::uint32_t* idx,
               std::int32_t* val) {
  std::int32_t lo = row[0], hi = row[0];
  for (const std::int32_t x : row) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const auto range =
      static_cast<std::size_t>(static_cast<std::int64_t>(hi) - lo);
  if (range > max_range) {
    throw std::logic_error(
        "At-Sel: approximate scores span more than the quantized codes "
        "allow");
  }

  const std::size_t bins = range + 1;
  if (s.hist.size() < kBanks * bins) s.hist.resize(kBanks * bins);
  std::uint32_t* const h = s.hist.data();
  std::fill_n(h, kBanks * bins, 0u);
  const std::size_t n = row.size();
  std::size_t j = 0;
  for (; j + kBanks <= n; j += kBanks) {
    for (std::size_t b = 0; b < kBanks; ++b) ++h[b * bins + (hi - row[j + b])];
  }
  for (; j < n; ++j) ++h[hi - row[j]];

  // Exclusive prefix sum, into bank 0, up to the bin that holds the kk-th
  // key.
  std::size_t cut = 0;
  for (std::uint32_t seen = 0;; ++cut) {
    std::uint32_t count = 0;
    for (std::size_t b = 0; b < kBanks; ++b) count += h[b * bins + cut];
    h[cut] = seen;
    seen += count;
    if (seen >= kk) break;
  }

  // Branchless compaction of the keys scoring at least the cut.
  if (s.keep.size() < n) s.keep.resize(n);
  std::uint32_t* const keep = s.keep.data();
  const std::size_t kept =
      KeepAtLeast(row, hi - static_cast<std::int32_t>(cut), keep);

  // Counting placement: every bin above the cut fits whole; the cut bin
  // takes its first keys until the kk slots are full.
  for (std::size_t r = 0; r < kept; ++r) {
    const std::uint32_t key = keep[r];
    std::uint32_t& slot = h[static_cast<std::size_t>(hi - row[key])];
    if (slot < kk) {
      idx[slot] = key;
      val[slot] = row[key];
      ++slot;
    }
  }
}

}  // namespace

std::size_t SelectScratch::CapacityBytes() const {
  return (candidates.capacity() + hist.capacity() + keep.capacity()) *
             sizeof(std::uint32_t) +
         (approx_scores.capacity() + strip.capacity()) * sizeof(std::int32_t) +
         qcodes.capacity() + kcodes.capacity() + kt.capacity() +
         qstrip.capacity() + kpack.bytes() + gemm.CapacityBytes();
}

void SelectCandidates(const MatrixF& q, const MatrixF& k,
                      const SelectorConfig& cfg, SelectScratch& out) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("At-Sel: head dim mismatch");
  }
  if (cfg.top_k == 0) {
    throw std::invalid_argument("At-Sel: top_k must be >= 1");
  }
  if (cfg.bits != 1 && cfg.bits != 4) {
    throw std::invalid_argument("At-Sel: bits must be 1 or 4");
  }
  const std::size_t n_q = q.rows();
  const std::size_t d = q.cols();
  // Padding keys (index >= valid_len) never enter the sorter -- the
  // hardware gates them at the FIFO (Fig 1(b) masking, applied before
  // selection) -- so they are never scored either.
  const std::size_t valid =
      cfg.valid_len == 0 ? k.rows()
                         : std::min<std::size_t>(cfg.valid_len, k.rows());
  const std::size_t kk = std::min(cfg.top_k, valid);
  out.per_row = kk;
  out.candidates.resize(n_q * kk);
  out.approx_scores.resize(n_q * kk);
  out.lut_multiplies = n_q * k.rows() * d;
  out.sorter_cycles = n_q * valid;

  // Step 2 of Fig 3: ultra-low-bit quantization with per-tensor scaling
  // (K's scale covers the padding keys too).
  QuantizeInto(q, cfg.bits, out.qcodes);
  QuantizeInto(k, cfg.bits, out.kcodes);
  if (n_q == 0 || kk == 0) return;
  // K^T in blocks of 64 keys: the block's code rows stay in L1 while each
  // of kt's rows takes 64 contiguous bytes.
  out.kt.Resize(d, valid);
  constexpr std::size_t kBlock = 64;
  for (std::size_t j0 = 0; j0 < valid; j0 += kBlock) {
    const std::size_t j1 = std::min(valid, j0 + kBlock);
    for (std::size_t c = 0; c < d; ++c) {
      std::int8_t* dst = out.kt.row(c).data();
      for (std::size_t j = j0; j < j1; ++j) dst[j] = out.kcodes(j, c);
    }
  }
  out.kpack = PackedInt8Weights(out.kt);

  // Steps 3-4, a strip at a time: the strip's scores are the integers the
  // product LUT would form (every product of table-range codes is exact
  // in the int8 GEMM), and each row is selected while they are in cache.
  // The codes bound every score's magnitude by MaxCode^2 * d.
  const std::int64_t max_code = MaxCode(cfg.bits);
  const auto max_range = static_cast<std::size_t>(
      2 * max_code * max_code * static_cast<std::int64_t>(d));
  for (std::size_t i0 = 0; i0 < n_q; i0 += kSelectStripRows) {
    const std::size_t rows = std::min(kSelectStripRows, n_q - i0);
    out.qstrip.Resize(rows, d);
    std::copy_n(out.qcodes.flat().begin() + i0 * d, rows * d,
                out.qstrip.flat().begin());
    Int8GemmInto(out.qstrip, out.kpack, out.strip, out.gemm);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t at = (i0 + r) * kk;
      SelectRow(out.strip.row(r), kk, max_range, out,
                out.candidates.data() + at, out.approx_scores.data() + at);
    }
  }
}

SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
                                 const SelectorConfig& cfg) {
  SelectScratch scratch;
  SelectCandidates(q, k, cfg, scratch);
  SelectionResult res;
  res.lut_multiplies = scratch.lut_multiplies;
  res.sorter_cycles = scratch.sorter_cycles;
  res.candidates.reserve(q.rows());
  res.approx_scores.reserve(q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto cand = scratch.candidate_row(i);
    const auto score = scratch.score_row(i);
    res.candidates.emplace_back(cand.begin(), cand.end());
    res.approx_scores.emplace_back(score.begin(), score.end());
  }
  return res;
}

std::vector<std::vector<std::uint32_t>> ExactTopKCandidates(
    const MatrixF& q, const MatrixF& k, std::size_t top_k) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("ExactTopKCandidates: head dim mismatch");
  }
  const MatrixF s = MatMulBT(q, k);
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(s.rows());
  for (std::size_t i = 0; i < s.rows(); ++i) {
    auto row = s.row(i);
    std::vector<std::uint32_t> order(row.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      order[j] = static_cast<std::uint32_t>(j);
    }
    const std::size_t kk = std::min<std::size_t>(top_k, row.size());
    std::partial_sort(order.begin(), order.begin() + kk, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;
                      });
    order.resize(kk);
    out.push_back(std::move(order));
  }
  return out;
}

}  // namespace latte
