#ifndef MINTRI_GRAPH_BITSET_KERNELS_H_
#define MINTRI_GRAPH_BITSET_KERNELS_H_

// The single word-level kernel layer under every bitset hot loop in the
// library. All VertexSet algebra (union/intersect/minus/complement), the
// set predicates (subset, intersects, equality, emptiness), popcount,
// first-set, and the ComponentScanner's fused BFS step funnel through the
// functions in this header instead of open-coding uint64_t loops at each
// call site.
//
// Layering:
//
//   * `scalar::` — the one reference implementation. Plain word loops,
//     no intrinsics, fully defined behavior. This is the path the
//     sanitizer builds (ASan/UBSan/TSan) compile and run, and the path
//     every differential test compares against.
//   * `avx2::` — an explicit AVX2 path, compiled via the GCC/Clang
//     `target("avx2")` function attribute so the rest of the translation
//     unit keeps its baseline ISA. Only present when the compile-time
//     gate below admits it (x86-64, GCC/Clang, and MINTRI_DISABLE_SIMD
//     not defined).
//   * The unprefixed top-level functions dispatch per call: buffers of
//     at least kSimdMinWords words go to `avx2::` when the CPU supports
//     AVX2 (checked once, at static-initialization time); everything
//     else inlines the scalar loop. Small-universe graphs (< 193
//     vertices fit in 3 words) therefore never pay a dispatch call.
//
// Dispatch policy knobs:
//
//   * Compile time: -DMINTRI_DISABLE_SIMD (the MINTRI_DISABLE_SIMD CMake
//     option, forced ON by the sanitizer options) removes the AVX2 path
//     entirely; -DMINTRI_FORCE_AVX2 builds the whole tree with -mavx2 so
//     the compiler may also auto-vectorize the scalar path.
//   * There is no run-time switch: the differential tests call `scalar::`
//     and `avx2::` directly, and a scalar binary is a MINTRI_DISABLE_SIMD
//     build.
//
// Alignment: VertexSet stores its words in a WordStorage (below): up to
// 2 words inline in the object (small-buffer optimization — no heap
// traffic at all for graphs up to 128 vertices, which only ever run the
// scalar kernels), heap above, where the allocator returns 64-byte-
// aligned buffers for any allocation of at least kSimdMinWords words —
// so every buffer the AVX2 path can actually touch starts on a
// cache-line boundary, including the separator/PMC arena entries behind
// VertexSetTable and ShardedVertexSetTable, which hold VertexSets by
// value. Sub-threshold heap buffers (3 words) deliberately take the
// default allocator's small-size fast path instead: measured on the
// bench families, unconditional aligned allocation cost ~3x per
// alloc/free and showed up as a double-digit throughput loss on the
// small-universe suites. The kernels themselves use unaligned loads and
// remain correct on any pointer (the PmcTester cover bitmap pads its
// row stride with AlignWords once rows are wide enough to dispatch).
//
// Every kernel takes explicit word counts; none of them reads or writes
// beyond `n` words. Tail bits above a set's capacity are the caller's
// contract: VertexSet maintains them as zero (see TailMask), and the
// differential tests include non-multiple-of-64 capacities to pin that.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#define MINTRI_BITSET_X86_64 1
#else
#define MINTRI_BITSET_X86_64 0
#endif

#if MINTRI_BITSET_X86_64 && !defined(MINTRI_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define MINTRI_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define MINTRI_HAVE_AVX2_KERNELS 0
#endif

namespace mintri {
namespace bitset {

/// Minimal C++17 allocator returning `Alignment`-byte-aligned buffers.
/// Stateless; all instances compare equal.
///
/// Alignment is requested only for buffers of at least Alignment/2 bytes
/// (with the 64-byte WordVector below: >= 4 words, exactly the SIMD
/// dispatch threshold). Aligned `operator new` bypasses the allocator's
/// small-size fast path and costs ~3x a plain allocation, which is pure
/// loss on sub-threshold buffers where only the scalar kernels ever run;
/// the SIMD kernels themselves use unaligned loads and are correct on any
/// pointer, so the threshold trades a guaranteed-aligned *wide* buffer
/// for a cheap *narrow* one.
template <typename T, size_t Alignment>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    if (WantsAlignment(n)) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) {
    if (WantsAlignment(n)) {
      ::operator delete(p, std::align_val_t(Alignment));
    } else {
      ::operator delete(p);
    }
  }

  static bool WantsAlignment(size_t n) {
    return n * sizeof(T) >= Alignment / 2;
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// The word-buffer type behind multi-row bitmaps (the PmcTester cover):
/// cache-line-aligned from 4 words up (the SIMD dispatch threshold),
/// default-allocated below it — see AlignedAllocator. Single-set storage
/// lives in WordStorage below instead, which adds a small-buffer fast path.
using WordVector = std::vector<uint64_t, AlignedAllocator<uint64_t, 64>>;

/// Small-buffer word storage: the buffer behind VertexSet. Up to
/// kInlineWords words (128 vertices — which covers every bundled bench
/// family) live inline in the object, so constructing, copying, moving, or
/// destroying a small set never touches the allocator; PR 8's A/B runs
/// measured the small-universe enumeration suites as allocation- and
/// table-bound, and this is the allocation half of that fix. Wider
/// universes spill to a heap buffer obtained through AlignedAllocator,
/// preserving the alignment-from-threshold policy: every spilled buffer of
/// at least kSimdMinWords words is 64-byte-aligned (exactly the buffers the
/// AVX2 kernels can dispatch on), while 3-word spills take the default
/// allocator's small-size fast path. Inline buffers are only 8-byte-aligned,
/// which is safe: at <= 2 words they are below the dispatch threshold and
/// only ever run the scalar kernels.
///
/// Mirrors the std::vector subset VertexSet needs (data/size/operator[]/
/// assign/resize/lexicographic compare). Like vector::assign, shrinking
/// reuses the existing buffer: a set that spilled once keeps its heap
/// buffer until destroyed or moved from, so Reset-style scratch reuse stays
/// allocation-free in steady state.
class WordStorage {
 public:
  /// 2 words = 128 vertices inline. One word would already cover most
  /// bench graphs, but the second costs only 8 bytes of object and keeps
  /// the whole <= 128-vertex regime (and the 65..128 half of it that the
  /// fuzz corpus exercises) off the allocator.
  static constexpr size_t kInlineWords = 2;

  WordStorage() = default;
  WordStorage(size_t n, uint64_t value) { assign(n, value); }

  WordStorage(const WordStorage& other) { CopyFrom(other); }
  WordStorage& operator=(const WordStorage& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  WordStorage(WordStorage&& other) noexcept { StealFrom(other); }
  WordStorage& operator=(WordStorage&& other) noexcept {
    if (this != &other) {
      ReleaseHeap();
      StealFrom(other);
    }
    return *this;
  }

  ~WordStorage() { ReleaseHeap(); }

  uint64_t* data() { return data_; }
  const uint64_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint64_t& operator[](size_t i) { return data_[i]; }
  const uint64_t& operator[](size_t i) const { return data_[i]; }

  /// True while the words live inside the object (no heap buffer was ever
  /// needed). Exposed so the spill-boundary tests can pin the storage
  /// class, not just the values.
  bool is_inline() const { return data_ == inline_; }

  /// Moves the words onto a heap buffer even when they fit inline, keeping
  /// the values. Idempotent; one allocation for the lifetime of the
  /// storage (assign/resize reuse the heap buffer afterwards). See
  /// VertexSet::PinWordsToHeap for when this is a win.
  void force_heap() {
    if (data_ != inline_) return;
    uint64_t* fresh = Alloc().allocate(kInlineWords);
    for (size_t w = 0; w < size_; ++w) fresh[w] = inline_[w];
    data_ = fresh;
    cap_ = kInlineWords;
  }

  /// Sets every one of n words to `value`, reusing the current buffer when
  /// it is large enough (vector::assign semantics).
  void assign(size_t n, uint64_t value) {
    if (n > cap_) Reallocate(n, /*preserve_words=*/0);
    for (size_t w = 0; w < n; ++w) data_[w] = value;
    size_ = static_cast<uint32_t>(n);
  }

  /// Grows or shrinks to n words; new words are zero, kept words preserve
  /// their values (vector::resize semantics — spilling across the inline
  /// boundary copies the inline words into the fresh heap buffer).
  void resize(size_t n) {
    if (n > cap_) Reallocate(n, /*preserve_words=*/size_);
    for (size_t w = size_; w < n; ++w) data_[w] = 0;
    size_ = static_cast<uint32_t>(n);
  }

  /// Lexicographic word order (the vector operator< VertexSet's total
  /// order was built on; capacities are compared by the caller first).
  friend bool operator<(const WordStorage& a, const WordStorage& b) {
    const size_t common = a.size_ < b.size_ ? a.size_ : b.size_;
    for (size_t w = 0; w < common; ++w) {
      if (a.data_[w] != b.data_[w]) return a.data_[w] < b.data_[w];
    }
    return a.size_ < b.size_;
  }

 private:
  using Alloc = AlignedAllocator<uint64_t, 64>;

  void CopyFrom(const WordStorage& other) {
    if (other.size_ > cap_) Reallocate(other.size_, /*preserve_words=*/0);
    for (size_t w = 0; w < other.size_; ++w) data_[w] = other.data_[w];
    size_ = other.size_;
  }

  // Leaves `other` empty-inline (a valid, reusable state).
  void StealFrom(WordStorage& other) {
    if (other.is_inline()) {
      data_ = inline_;
      cap_ = kInlineWords;
      for (size_t w = 0; w < other.size_; ++w) inline_[w] = other.inline_[w];
    } else {
      data_ = other.data_;
      cap_ = other.cap_;
      other.data_ = other.inline_;
      other.cap_ = kInlineWords;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  // Moves to a heap buffer of exactly n words (n > kInlineWords), keeping
  // the first preserve_words words. Exact sizing, not geometric growth: a
  // set's word count is pinned by its universe, which almost never changes
  // after construction.
  void Reallocate(size_t n, size_t preserve_words) {
    uint64_t* fresh = Alloc().allocate(n);
    for (size_t w = 0; w < preserve_words; ++w) fresh[w] = data_[w];
    ReleaseHeap();
    data_ = fresh;
    cap_ = static_cast<uint32_t>(n);
  }

  void ReleaseHeap() {
    if (!is_inline()) Alloc().deallocate(data_, cap_);
  }

  uint64_t* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t cap_ = kInlineWords;
  uint64_t inline_[kInlineWords] = {0, 0};
};

/// Mask keeping the valid bits of the last word of a `capacity`-bit set:
/// all-ones when capacity is a multiple of 64 (or zero), otherwise the low
/// (capacity % 64) bits.
inline uint64_t TailMask(int capacity) {
  const int rem = capacity & 63;
  return rem == 0 ? ~uint64_t{0} : (~uint64_t{0} >> (64 - rem));
}

/// Rounds a word count up to a whole cache line (8 words), so packed
/// multi-row bitmaps keep every row 64-byte-aligned.
inline size_t AlignWords(size_t words) { return (words + 7) & ~size_t{7}; }

// ---------------------------------------------------------------------------
// Scalar reference implementations. The only path in sanitizer builds;
// the ground truth for the differential tests.
// ---------------------------------------------------------------------------

namespace scalar {

inline void UnionInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] |= src[w];
}

inline void AssignUnion(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                        size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] = a[w] | b[w];
}

inline void IntersectInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] &= src[w];
}

inline void MinusInto(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t w = 0; w < n; ++w) dst[w] &= ~src[w];
}

/// dst = ~src, with `tail_mask` applied to the last word so bits above the
/// capacity stay zero.
inline void ComplementInto(uint64_t* dst, const uint64_t* src, size_t n,
                           uint64_t tail_mask) {
  for (size_t w = 0; w < n; ++w) dst[w] = ~src[w];
  if (n > 0) dst[n - 1] &= tail_mask;
}

/// dst = the full universe, with `tail_mask` applied to the last word.
inline void FillOnes(uint64_t* dst, size_t n, uint64_t tail_mask) {
  for (size_t w = 0; w < n; ++w) dst[w] = ~uint64_t{0};
  if (n > 0) dst[n - 1] &= tail_mask;
}

inline bool IsZero(const uint64_t* a, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != 0) return false;
  }
  return true;
}

inline bool Equal(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

inline bool IsSubset(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

inline bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

inline int Popcount(const uint64_t* a, size_t n) {
  int c = 0;
  for (size_t w = 0; w < n; ++w) c += __builtin_popcountll(a[w]);
  return c;
}

/// Bit index of the first set bit, or -1 when all n words are zero.
inline int FirstSet(const uint64_t* a, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if (a[w] != 0) {
      return static_cast<int>(w * 64) + __builtin_ctzll(a[w]);
    }
  }
  return -1;
}

/// One fused BFS level of the component scanner, in a single pass over the
/// words: folds `reach` into the `neighborhood` accumulator, computes the
/// next frontier (reached, not removed, not yet in the component), grows
/// the component, and clears `reach`. Returns the OR of the fresh frontier
/// words (zero iff the BFS is done).
inline uint64_t BfsFusedStep(uint64_t* component, uint64_t* frontier,
                             uint64_t* neighborhood, uint64_t* reach,
                             const uint64_t* removed, size_t n) {
  uint64_t any = 0;
  for (size_t w = 0; w < n; ++w) {
    const uint64_t r = reach[w];
    neighborhood[w] |= r;
    const uint64_t fresh = r & ~removed[w] & ~component[w];
    component[w] |= fresh;
    frontier[w] = fresh;
    reach[w] = 0;
    any |= fresh;
  }
  return any;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 implementations: 4 words (one cache half-line) per vector op, with
// a scalar tail. Compiled with the target("avx2") attribute so the file
// builds without -mavx2; only ever called after the runtime CPU check.
// ---------------------------------------------------------------------------

#if MINTRI_HAVE_AVX2_KERNELS

#define MINTRI_AVX2_FN __attribute__((target("avx2"))) inline

namespace avx2 {

MINTRI_AVX2_FN void UnionInto(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(a, b));
  }
  for (; w < n; ++w) dst[w] |= src[w];
}

MINTRI_AVX2_FN void AssignUnion(uint64_t* dst, const uint64_t* a,
                                const uint64_t* b, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(va, vb));
  }
  for (; w < n; ++w) dst[w] = a[w] | b[w];
}

MINTRI_AVX2_FN void IntersectInto(uint64_t* dst, const uint64_t* src,
                                  size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_and_si256(a, b));
  }
  for (; w < n; ++w) dst[w] &= src[w];
}

MINTRI_AVX2_FN void MinusInto(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    // andnot(b, a) = ~b & a.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_andnot_si256(b, a));
  }
  for (; w < n; ++w) dst[w] &= ~src[w];
}

MINTRI_AVX2_FN void ComplementInto(uint64_t* dst, const uint64_t* src,
                                   size_t n, uint64_t tail_mask) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_xor_si256(v, ones));
  }
  for (; w < n; ++w) dst[w] = ~src[w];
  if (n > 0) dst[n - 1] &= tail_mask;
}

MINTRI_AVX2_FN void FillOnes(uint64_t* dst, size_t n, uint64_t tail_mask) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), ones);
  }
  for (; w < n; ++w) dst[w] = ~uint64_t{0};
  if (n > 0) dst[n - 1] &= tail_mask;
}

MINTRI_AVX2_FN bool IsZero(const uint64_t* a, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    if (!_mm256_testz_si256(v, v)) return false;
  }
  for (; w < n; ++w) {
    if (a[w] != 0) return false;
  }
  return true;
}

MINTRI_AVX2_FN bool Equal(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    const __m256i x = _mm256_xor_si256(va, vb);
    if (!_mm256_testz_si256(x, x)) return false;
  }
  for (; w < n; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

MINTRI_AVX2_FN bool IsSubset(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    // a \ b = andnot(b, a); subset iff it is zero.
    const __m256i extra = _mm256_andnot_si256(vb, va);
    if (!_mm256_testz_si256(extra, extra)) return false;
  }
  for (; w < n; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

MINTRI_AVX2_FN bool Intersects(const uint64_t* a, const uint64_t* b,
                               size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; w < n; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

// Positional-popcount (Muła): per-byte nibble lookup, horizontally summed
// with SAD against zero. No per-byte overflow because each iteration is
// folded into the 64-bit accumulator immediately.
MINTRI_AVX2_FN int Popcount(const uint64_t* a, size_t n) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                        _mm256_shuffle_epi8(lookup, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  int total = static_cast<int>(
      _mm256_extract_epi64(acc, 0) + _mm256_extract_epi64(acc, 1) +
      _mm256_extract_epi64(acc, 2) + _mm256_extract_epi64(acc, 3));
  for (; w < n; ++w) total += __builtin_popcountll(a[w]);
  return total;
}

MINTRI_AVX2_FN int FirstSet(const uint64_t* a, size_t n) {
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    if (!_mm256_testz_si256(v, v)) break;  // hit inside these 4 words
  }
  for (; w < n; ++w) {
    if (a[w] != 0) {
      return static_cast<int>(w * 64) + __builtin_ctzll(a[w]);
    }
  }
  return -1;
}

MINTRI_AVX2_FN uint64_t BfsFusedStep(uint64_t* component, uint64_t* frontier,
                                     uint64_t* neighborhood, uint64_t* reach,
                                     const uint64_t* removed, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i any_acc = zero;
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(reach + w));
    const __m256i nb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(neighborhood + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(neighborhood + w),
                        _mm256_or_si256(nb, r));
    const __m256i comp =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(component + w));
    const __m256i rem =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(removed + w));
    // fresh = r & ~(removed | component).
    const __m256i fresh =
        _mm256_andnot_si256(_mm256_or_si256(rem, comp), r);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(component + w),
                        _mm256_or_si256(comp, fresh));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(frontier + w), fresh);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(reach + w), zero);
    any_acc = _mm256_or_si256(any_acc, fresh);
  }
  uint64_t any = _mm256_testz_si256(any_acc, any_acc) ? 0 : 1;
  for (; w < n; ++w) {
    const uint64_t r = reach[w];
    neighborhood[w] |= r;
    const uint64_t fresh = r & ~removed[w] & ~component[w];
    component[w] |= fresh;
    frontier[w] = fresh;
    reach[w] = 0;
    any |= fresh;
  }
  return any;
}

}  // namespace avx2

#undef MINTRI_AVX2_FN

#endif  // MINTRI_HAVE_AVX2_KERNELS

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

/// Buffers shorter than this dispatch straight to the inlined scalar loop:
/// below one full vector iteration the AVX2 call cannot win, and graphs
/// under 193 vertices never leave the scalar path.
inline constexpr size_t kSimdMinWords = 4;

/// True iff this binary carries the AVX2 kernel path at all.
inline constexpr bool CompiledWithAvx2Kernels() {
  return MINTRI_HAVE_AVX2_KERNELS != 0;
}

/// CPU capability (the differential tests use this to decide whether
/// avx2:: is runnable).
inline bool CpuHasAvx2() {
#if MINTRI_HAVE_AVX2_KERNELS
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace detail {

// Dynamic-initialized at load time; a kernel called before this TU's
// static init reads the zero-initialized `false` and safely takes the
// scalar path.
inline const bool kUseAvx2 = CpuHasAvx2();

}  // namespace detail

/// True iff dispatched calls on >= kSimdMinWords words take the AVX2 path.
inline bool UsingAvx2() { return detail::kUseAvx2; }

/// Human-readable dispatch state, for diagnostics and docs.
inline const char* ActiveKernelPath() {
  return detail::kUseAvx2 ? "avx2" : "scalar";
}

#if MINTRI_HAVE_AVX2_KERNELS
#define MINTRI_BITSET_DISPATCH(fn, n, ...)                    \
  do {                                                        \
    if ((n) >= kSimdMinWords && detail::kUseAvx2) {           \
      return avx2::fn(__VA_ARGS__);                           \
    }                                                         \
    return scalar::fn(__VA_ARGS__);                           \
  } while (0)
#else
#define MINTRI_BITSET_DISPATCH(fn, n, ...) return scalar::fn(__VA_ARGS__)
#endif

inline void UnionInto(uint64_t* dst, const uint64_t* src, size_t n) {
  MINTRI_BITSET_DISPATCH(UnionInto, n, dst, src, n);
}
inline void AssignUnion(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                        size_t n) {
  MINTRI_BITSET_DISPATCH(AssignUnion, n, dst, a, b, n);
}
inline void IntersectInto(uint64_t* dst, const uint64_t* src, size_t n) {
  MINTRI_BITSET_DISPATCH(IntersectInto, n, dst, src, n);
}
inline void MinusInto(uint64_t* dst, const uint64_t* src, size_t n) {
  MINTRI_BITSET_DISPATCH(MinusInto, n, dst, src, n);
}
inline void ComplementInto(uint64_t* dst, const uint64_t* src, size_t n,
                           uint64_t tail_mask) {
  MINTRI_BITSET_DISPATCH(ComplementInto, n, dst, src, n, tail_mask);
}
inline void FillOnes(uint64_t* dst, size_t n, uint64_t tail_mask) {
  MINTRI_BITSET_DISPATCH(FillOnes, n, dst, n, tail_mask);
}
inline bool IsZero(const uint64_t* a, size_t n) {
  MINTRI_BITSET_DISPATCH(IsZero, n, a, n);
}
inline bool Equal(const uint64_t* a, const uint64_t* b, size_t n) {
  MINTRI_BITSET_DISPATCH(Equal, n, a, b, n);
}
inline bool IsSubset(const uint64_t* a, const uint64_t* b, size_t n) {
  MINTRI_BITSET_DISPATCH(IsSubset, n, a, b, n);
}
inline bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  MINTRI_BITSET_DISPATCH(Intersects, n, a, b, n);
}
inline int Popcount(const uint64_t* a, size_t n) {
  MINTRI_BITSET_DISPATCH(Popcount, n, a, n);
}
inline int FirstSet(const uint64_t* a, size_t n) {
  MINTRI_BITSET_DISPATCH(FirstSet, n, a, n);
}
inline uint64_t BfsFusedStep(uint64_t* component, uint64_t* frontier,
                             uint64_t* neighborhood, uint64_t* reach,
                             const uint64_t* removed, size_t n) {
  MINTRI_BITSET_DISPATCH(BfsFusedStep, n, component, frontier, neighborhood,
                         reach, removed, n);
}

#undef MINTRI_BITSET_DISPATCH

}  // namespace bitset
}  // namespace mintri

#endif  // MINTRI_GRAPH_BITSET_KERNELS_H_
