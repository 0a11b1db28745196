#include "ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dsi::transforms {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Cartesian:
        return "Cartesian";
      case OpKind::Bucketize:
        return "Bucketize";
      case OpKind::ComputeScore:
        return "ComputeScore";
      case OpKind::Enumerate:
        return "Enumerate";
      case OpKind::PositiveModulus:
        return "PositiveModulus";
      case OpKind::IdListTransform:
        return "IdListTransform";
      case OpKind::BoxCox:
        return "BoxCox";
      case OpKind::Logit:
        return "Logit";
      case OpKind::MapId:
        return "MapId";
      case OpKind::FirstX:
        return "FirstX";
      case OpKind::GetLocalHour:
        return "GetLocalHour";
      case OpKind::SigridHash:
        return "SigridHash";
      case OpKind::NGram:
        return "NGram";
      case OpKind::Onehot:
        return "Onehot";
      case OpKind::Clamp:
        return "Clamp";
      case OpKind::Sampling:
        return "Sampling";
    }
    return "?";
}

OpClass
opClassOf(OpKind kind)
{
    switch (kind) {
      case OpKind::Cartesian:
      case OpKind::Bucketize:
      case OpKind::ComputeScore:
      case OpKind::Enumerate:
      case OpKind::IdListTransform:
      case OpKind::MapId:
      case OpKind::GetLocalHour:
      case OpKind::NGram:
        return OpClass::FeatureGeneration;
      case OpKind::PositiveModulus:
      case OpKind::FirstX:
      case OpKind::SigridHash:
        return OpClass::SparseNormalization;
      case OpKind::BoxCox:
      case OpKind::Logit:
      case OpKind::Onehot:
      case OpKind::Clamp:
        return OpClass::DenseNormalization;
      case OpKind::Sampling:
        return OpClass::Sampling;
    }
    return OpClass::Sampling;
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::FeatureGeneration:
        return "feature-generation";
      case OpClass::SparseNormalization:
        return "sparse-normalization";
      case OpClass::DenseNormalization:
        return "dense-normalization";
      case OpClass::Sampling:
        return "sampling";
    }
    return "?";
}

void
TransformSpec::serialize(dwrf::Buffer &out) const
{
    out.push_back(static_cast<uint8_t>(kind));
    dwrf::putVarint(out, output);
    dwrf::putVarint(out, inputs.size());
    for (FeatureId f : inputs)
        dwrf::putVarint(out, f);
    dwrf::putFloat(out, static_cast<float>(p0));
    dwrf::putFloat(out, static_cast<float>(p1));
    dwrf::putVarint(out, u0);
    dwrf::putVarint(out, u1);
}

bool
TransformSpec::deserialize(dwrf::ByteSpan data, size_t &pos,
                           TransformSpec &spec)
{
    if (pos >= data.size())
        return false;
    spec.kind = static_cast<OpKind>(data[pos++]);
    uint64_t out_id, n;
    if (!dwrf::getVarint(data, pos, out_id) ||
        !dwrf::getVarint(data, pos, n)) {
        return false;
    }
    spec.output = static_cast<FeatureId>(out_id);
    spec.inputs.resize(n);
    for (auto &f : spec.inputs) {
        uint64_t id;
        if (!dwrf::getVarint(data, pos, id))
            return false;
        f = static_cast<FeatureId>(id);
    }
    float a, b;
    if (!dwrf::getFloat(data, pos, a) || !dwrf::getFloat(data, pos, b))
        return false;
    spec.p0 = a;
    spec.p1 = b;
    if (!dwrf::getVarint(data, pos, spec.u0) ||
        !dwrf::getVarint(data, pos, spec.u1)) {
        return false;
    }
    return true;
}

void
TransformStats::merge(const TransformStats &other)
{
    values_produced += other.values_produced;
    values_consumed += other.values_consumed;
    rows_in += other.rows_in;
    rows_out += other.rows_out;
    for (int i = 0; i < 4; ++i)
        class_values[i] += other.class_values[i];
}

double
TransformStats::classShare(OpClass cls) const
{
    uint64_t total = 0;
    for (int i = 0; i < 4; ++i)
        total += class_values[i];
    if (total == 0)
        return 0.0;
    return static_cast<double>(class_values[static_cast<int>(cls)]) /
           static_cast<double>(total);
}

namespace {

/** sigridHash64(value, salt) == mix64(value + saltTerm(salt)). */
inline uint64_t
saltTerm(uint64_t salt)
{
    return salt * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
}

inline uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
sigridHash64(uint64_t value, uint64_t salt)
{
    return mix64(value + saltTerm(salt));
}

namespace {

/** Shared base: holds the spec and stats plumbing. */
class TransformBase : public Transform
{
  public:
    explicit TransformBase(TransformSpec spec) : spec_(std::move(spec))
    {
    }
    const TransformSpec &spec() const override { return spec_; }

  protected:
    void
    account(TransformStats &stats, uint64_t consumed,
            uint64_t produced) const
    {
        stats.values_consumed += consumed;
        stats.values_produced += produced;
        stats.class_values[static_cast<int>(opClass())] += consumed;
    }

    TransformSpec spec_;
};

/** Base for ops mapping one dense input to one dense output. */
class DenseUnaryOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    virtual float map(float x) const = 0;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats) const override
    {
        const dwrf::DenseColumn *in = batch.findDense(spec_.inputs[0]);
        if (!in)
            return;
        dwrf::DenseColumn out;
        out.id = spec_.output;
        out.present = in->present;
        out.values.assign(batch.rows, 0.0f);
        uint64_t n = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            if (in->isPresent(r)) {
                out.values[r] = map(in->values[r]);
                ++n;
            }
        }
        account(stats, n, n);
        batch.dense.push_back(std::move(out));
    }
};

class BucketizeOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        // Borders start at p0 with width p1, u0 buckets total.
        double width = spec_.p1 > 0 ? spec_.p1 : 1.0;
        double idx = std::floor((x - spec_.p0) / width);
        double hi = static_cast<double>(
            spec_.u0 > 0 ? spec_.u0 - 1 : 0);
        return static_cast<float>(std::clamp(idx, 0.0, hi));
    }
};

class BoxCoxOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        // lambda = p0, shift = p1 keeps the argument positive.
        double v = std::max(1e-9, static_cast<double>(x) + spec_.p1);
        if (std::abs(spec_.p0) < 1e-9)
            return static_cast<float>(std::log(v));
        return static_cast<float>(
            (std::pow(v, spec_.p0) - 1.0) / spec_.p0);
    }
};

class LogitOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        double eps = spec_.p0 > 0 ? spec_.p0 : 1e-6;
        double p = std::clamp(static_cast<double>(x), eps, 1.0 - eps);
        return static_cast<float>(std::log(p / (1.0 - p)));
    }
};

class ClampOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        return std::clamp(x, static_cast<float>(spec_.p0),
                          static_cast<float>(spec_.p1));
    }
};

class GetLocalHourOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        // x is a unix timestamp; u0 is the timezone offset in hours.
        double shifted =
            static_cast<double>(x) + static_cast<double>(spec_.u0) *
                                         3600.0;
        double seconds = std::fmod(shifted, 86400.0);
        if (seconds < 0)
            seconds += 86400.0;
        return static_cast<float>(std::floor(seconds / 3600.0));
    }
};

/** Onehot: dense value -> single categorical id (bucket index). */
class OnehotOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats) const override
    {
        const dwrf::DenseColumn *in = batch.findDense(spec_.inputs[0]);
        if (!in)
            return;
        dwrf::SparseColumn out;
        out.id = spec_.output;
        out.offsets.assign(batch.rows + 1, 0);
        out.values.reserve(batch.rows);
        uint64_t buckets = spec_.u0 > 0 ? spec_.u0 : 2;
        double width = spec_.p1 > 0 ? spec_.p1 : 1.0;
        uint64_t n = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            out.offsets[r + 1] = out.offsets[r];
            if (!in->isPresent(r))
                continue;
            double idx =
                std::floor((in->values[r] - spec_.p0) / width);
            int64_t bucket = static_cast<int64_t>(std::clamp(
                idx, 0.0, static_cast<double>(buckets - 1)));
            out.values.push_back(bucket);
            ++out.offsets[r + 1];
            ++n;
        }
        account(stats, n, n);
        batch.sparse.push_back(std::move(out));
    }
};

/**
 * A sparse input column over a batch's rows. Row r's values are
 * values[lo(r) .. lo(r) + len(r)); `values` and `scores` already
 * point at the column's first row, so a column whose offsets[0] != 0
 * reads the same as one rebased to zero.
 */
struct ListInput
{
    const uint32_t *offsets = nullptr; ///< rows + 1 entries
    const int64_t *values = nullptr;
    const float *scores = nullptr;     ///< nullptr when unscored
    uint32_t base = 0;                 ///< offsets[0]
    uint32_t total = 0;                ///< values over all rows

    ListInput(const dwrf::SparseColumn &col, uint32_t rows)
    {
        if (rows == 0)
            return;
        offsets = col.offsets.data();
        base = offsets[0];
        total = offsets[rows] - base;
        values = col.values.data() + base;
        if (!col.scores.empty())
            scores = col.scores.data() + base;
    }

    uint32_t lo(uint32_t r) const { return offsets[r] - base; }
    uint32_t len(uint32_t r) const { return offsets[r + 1] - offsets[r]; }
    const int64_t *row(uint32_t r) const { return values + lo(r); }
};

/**
 * Fill `offsets` (rows + 1 entries, starting at 0) for an op that
 * emits `count(len)` values for an input row of `len` values, and
 * return the column's output total.
 */
template <typename Count>
uint32_t
outputOffsets(const ListInput &in, uint32_t rows,
              std::vector<uint32_t> &offsets, Count count)
{
    offsets.resize(rows + 1);
    offsets[0] = 0;
    uint32_t total = 0;
    for (uint32_t r = 0; r < rows; ++r) {
        total += count(in.len(r));
        offsets[r + 1] = total;
    }
    return total;
}

/** Offsets of a 1:1 op: the input's, rebased to start at zero. */
uint32_t
sameOffsets(const ListInput &in, uint32_t rows,
            std::vector<uint32_t> &offsets)
{
    return outputOffsets(in, rows, offsets,
                         [](uint32_t len) { return len; });
}

/** A 1:1 kernel: out.values[i] = f(in.values[i]) over the column. */
template <typename F>
void
mapValues(const ListInput &in, uint32_t rows, dwrf::SparseColumn &out,
          F f)
{
    sameOffsets(in, rows, out.offsets);
    out.values.resize(in.total);
    int64_t *dst = out.values.data();
    for (uint32_t i = 0; i < in.total; ++i)
        dst[i] = f(in.values[i]);
}

/**
 * Base for ops mapping one sparse input to one sparse output. The
 * kernel fills the whole output column in one pass over the batch.
 */
class SparseUnaryOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats) const override
    {
        const dwrf::SparseColumn *col =
            batch.findSparse(spec_.inputs[0]);
        if (!col)
            return;
        ListInput in(*col, batch.rows);
        dwrf::SparseColumn out;
        out.id = spec_.output;
        kernel(in, batch.rows, out);
        account(stats, in.total, out.values.size());
        batch.sparse.push_back(std::move(out));
    }

  protected:
    virtual void kernel(const ListInput &in, uint32_t rows,
                        dwrf::SparseColumn &out) const = 0;
};

class SigridHashOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        uint64_t max_value = spec_.u1 > 0 ? spec_.u1 : (1ULL << 31);
        uint64_t salt = saltTerm(spec_.u0);
        auto hash = [salt](int64_t v) {
            return mix64(static_cast<uint64_t>(v) + salt);
        };
        if ((max_value & (max_value - 1)) == 0) {
            // x % 2^k == x & (2^k - 1) for unsigned x.
            uint64_t mask = max_value - 1;
            mapValues(in, rows, out, [&](int64_t v) {
                return static_cast<int64_t>(hash(v) & mask);
            });
        } else {
            mapValues(in, rows, out, [&](int64_t v) {
                return static_cast<int64_t>(hash(v) % max_value);
            });
        }
    }
};

class PositiveModulusOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        int64_t m = spec_.u0 > 0 ? static_cast<int64_t>(spec_.u0)
                                 : 1000000;
        mapValues(in, rows, out, [m](int64_t v) {
            v %= m;
            return v < 0 ? v + m : v;
        });
    }
};

class FirstXOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        uint32_t keep = spec_.u0 > 0 ? static_cast<uint32_t>(spec_.u0)
                                     : 1;
        uint32_t total = outputOffsets(
            in, rows, out.offsets,
            [keep](uint32_t len) { return std::min(len, keep); });
        out.values.resize(total);
        if (in.scores)
            out.scores.resize(total);
        for (uint32_t r = 0; r < rows; ++r) {
            uint32_t lo = in.lo(r);
            uint32_t n = out.offsets[r + 1] - out.offsets[r];
            std::copy_n(in.values + lo, n,
                        out.values.data() + out.offsets[r]);
            if (in.scores) {
                std::copy_n(in.scores + lo, n,
                            out.scores.data() + out.offsets[r]);
            }
        }
    }
};

class MapIdOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        // Fixed mapping: ids below u0 keep a remapped identity; all
        // others collapse to the default id u1.
        int64_t dict = static_cast<int64_t>(spec_.u0);
        int64_t other = static_cast<int64_t>(spec_.u1);
        mapValues(in, rows, out, [=](int64_t v) {
            return v < dict ? v + 1 : other;
        });
    }
};

class NGramOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        uint32_t n = spec_.u0 >= 2 ? static_cast<uint32_t>(spec_.u0)
                                   : 2;
        // One window per start position i with i + n <= len.
        uint32_t total = outputOffsets(
            in, rows, out.offsets, [n](uint32_t len) {
                return len >= n ? len - n + 1 : 0;
            });
        out.values.resize(total);
        for (uint32_t r = 0; r < rows; ++r) {
            const int64_t *v = in.row(r);
            int64_t *dst = out.values.data() + out.offsets[r];
            uint32_t windows = out.offsets[r + 1] - out.offsets[r];
            for (uint32_t i = 0; i < windows; ++i) {
                uint64_t h = spec_.u1; // salt
                for (uint32_t k = 0; k < n; ++k)
                    h = mix64(static_cast<uint64_t>(v[i + k]) +
                              saltTerm(h));
                dst[i] = static_cast<int64_t>(h >> 1); // keep positive
            }
        }
    }
};

class EnumerateOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        sameOffsets(in, rows, out.offsets);
        out.values.assign(in.values, in.values + in.total);
        out.scores.resize(in.total);
        for (uint32_t r = 0; r < rows; ++r) {
            float *dst = out.scores.data() + out.offsets[r];
            uint32_t len = out.offsets[r + 1] - out.offsets[r];
            for (uint32_t i = 0; i < len; ++i)
                dst[i] = static_cast<float>(i);
        }
    }
};

class ComputeScoreOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

  protected:
    void
    kernel(const ListInput &in, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        // score' = score * p0 + p1 (score defaults to 1 if absent)
        sameOffsets(in, rows, out.offsets);
        out.values.assign(in.values, in.values + in.total);
        if (!in.scores) {
            out.scores.assign(
                in.total, static_cast<float>(1.0 * spec_.p0 + spec_.p1));
            return;
        }
        out.scores.resize(in.total);
        for (uint32_t i = 0; i < in.total; ++i) {
            double s = in.scores[i];
            out.scores[i] = static_cast<float>(s * spec_.p0 + spec_.p1);
        }
    }
};

/** Base for ops combining two sparse inputs, a column at a time. */
class SparseBinaryOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats) const override
    {
        const dwrf::SparseColumn *ca = batch.findSparse(spec_.inputs[0]);
        const dwrf::SparseColumn *cb = batch.findSparse(spec_.inputs[1]);
        if (!ca || !cb)
            return;
        ListInput a(*ca, batch.rows);
        ListInput b(*cb, batch.rows);
        dwrf::SparseColumn out;
        out.id = spec_.output;
        kernel(a, b, batch.rows, out);
        account(stats, uint64_t{a.total} + b.total, out.values.size());
        batch.sparse.push_back(std::move(out));
    }

  protected:
    virtual void kernel(const ListInput &a, const ListInput &b,
                        uint32_t rows, dwrf::SparseColumn &out) const = 0;
};

class CartesianOp : public SparseBinaryOp
{
  public:
    using SparseBinaryOp::SparseBinaryOp;

  protected:
    void
    kernel(const ListInput &a, const ListInput &b, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        // Row r emits the first min(cap, alen * blen) pairs (i, j) in
        // row-major order.
        uint64_t cap = spec_.u0 > 0 ? spec_.u0 : 128;
        out.offsets.resize(rows + 1);
        out.offsets[0] = 0;
        uint32_t total = 0;
        for (uint32_t r = 0; r < rows; ++r) {
            uint64_t pairs = uint64_t{a.len(r)} * b.len(r);
            total += static_cast<uint32_t>(std::min(cap, pairs));
            out.offsets[r + 1] = total;
        }
        out.values.resize(total);
        // Per-row salt terms of b: hash(a_i, b_j ^ u1) is
        // mix64(a_i + salts[j]).
        std::vector<uint64_t> salts;
        for (uint32_t r = 0; r < rows; ++r) {
            uint32_t n = out.offsets[r + 1] - out.offsets[r];
            if (n == 0)
                continue;
            const int64_t *av = a.row(r);
            const int64_t *bv = b.row(r);
            uint32_t blen = b.len(r);
            salts.resize(blen);
            for (uint32_t j = 0; j < blen; ++j)
                salts[j] = saltTerm(static_cast<uint64_t>(bv[j]) ^
                                    spec_.u1);
            int64_t *dst = out.values.data() + out.offsets[r];
            uint32_t k = 0;
            for (uint32_t i = 0; k < n; ++i) {
                uint64_t x = static_cast<uint64_t>(av[i]);
                for (uint32_t j = 0; j < blen && k < n; ++j)
                    dst[k++] =
                        static_cast<int64_t>(mix64(x + salts[j]) >> 1);
            }
        }
    }
};

bool
containsValue(const int64_t *v, uint32_t n, int64_t x)
{
    for (uint32_t i = 0; i < n; ++i)
        if (v[i] == x)
            return true;
    return false;
}

class IdListTransformOp : public SparseBinaryOp
{
  public:
    using SparseBinaryOp::SparseBinaryOp;

  protected:
    void
    kernel(const ListInput &a, const ListInput &b, uint32_t rows,
           dwrf::SparseColumn &out) const override
    {
        // Intersection of the two id lists, preserving a's order, each
        // id emitted at most once per row. Every a value is emitted at
        // most once, so a.total bounds the column.
        out.offsets.resize(rows + 1);
        out.offsets[0] = 0;
        out.values.resize(a.total);
        int64_t *dst = out.values.data();
        uint32_t n = 0;
        // Long-b scratch, reused by every row of this call.
        std::vector<int64_t> sorted_b;
        std::vector<uint8_t> emitted;
        for (uint32_t r = 0; r < rows; ++r) {
            const int64_t *av = a.row(r);
            const int64_t *bv = b.row(r);
            uint32_t alen = a.len(r);
            uint32_t blen = b.len(r);
            uint32_t row_start = n;
            if (alen == 0 || blen == 0) {
                // Nothing to intersect.
            } else if (blen < kIdListSortMinB) {
                for (uint32_t i = 0; i < alen; ++i) {
                    int64_t x = av[i];
                    if (containsValue(bv, blen, x) &&
                        !containsValue(dst + row_start, n - row_start,
                                       x)) {
                        dst[n++] = x;
                    }
                }
            } else {
                sorted_b.assign(bv, bv + blen);
                std::sort(sorted_b.begin(), sorted_b.end());
                sorted_b.erase(
                    std::unique(sorted_b.begin(), sorted_b.end()),
                    sorted_b.end());
                emitted.assign(sorted_b.size(), 0);
                for (uint32_t i = 0; i < alen; ++i) {
                    int64_t x = av[i];
                    auto it = std::lower_bound(sorted_b.begin(),
                                               sorted_b.end(), x);
                    if (it == sorted_b.end() || *it != x)
                        continue;
                    uint8_t &seen = emitted[it - sorted_b.begin()];
                    if (!seen) {
                        seen = 1;
                        dst[n++] = x;
                    }
                }
            }
            out.offsets[r + 1] = n;
        }
        out.values.resize(n);
    }
};

/** Batch-level random row sampling (keep rate p0, salt u0). */
class SamplingOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats) const override
    {
        stats.rows_in += batch.rows;
        std::vector<uint32_t> keep;
        keep.reserve(batch.rows);
        for (uint32_t r = 0; r < batch.rows; ++r) {
            uint64_t h = sigridHash64(sample_counter_ + r, spec_.u0);
            double u = static_cast<double>(h >> 11) * 0x1.0p-53;
            if (u < spec_.p0)
                keep.push_back(r);
        }
        sample_counter_ += batch.rows;

        dwrf::RowBatch out;
        out.rows = static_cast<uint32_t>(keep.size());
        out.labels.reserve(keep.size());
        for (uint32_t r : keep)
            out.labels.push_back(batch.labels.empty() ? 0.0f
                                                      : batch.labels[r]);
        for (const auto &col : batch.dense) {
            dwrf::DenseColumn c;
            c.id = col.id;
            c.present.assign((out.rows + 7) / 8, 0);
            c.values.assign(out.rows, 0.0f);
            for (uint32_t i = 0; i < out.rows; ++i) {
                if (col.isPresent(keep[i])) {
                    c.setPresent(i);
                    c.values[i] = col.values[keep[i]];
                }
            }
            out.dense.push_back(std::move(c));
        }
        for (const auto &col : batch.sparse) {
            dwrf::SparseColumn c;
            c.id = col.id;
            c.offsets.assign(out.rows + 1, 0);
            uint32_t kept_values = 0;
            for (uint32_t i = 0; i < out.rows; ++i)
                kept_values += col.offsets[keep[i] + 1] -
                               col.offsets[keep[i]];
            c.values.reserve(kept_values);
            if (!col.scores.empty())
                c.scores.reserve(kept_values);
            for (uint32_t i = 0; i < out.rows; ++i) {
                uint32_t lo = col.offsets[keep[i]];
                uint32_t hi = col.offsets[keep[i] + 1];
                c.values.insert(c.values.end(),
                                col.values.begin() + lo,
                                col.values.begin() + hi);
                if (!col.scores.empty()) {
                    c.scores.insert(c.scores.end(),
                                    col.scores.begin() + lo,
                                    col.scores.begin() + hi);
                }
                c.offsets[i + 1] =
                    static_cast<uint32_t>(c.values.size());
            }
            out.sparse.push_back(std::move(c));
        }
        account(stats, batch.rows, out.rows);
        stats.rows_out += out.rows;
        batch = std::move(out);
    }

  private:
    mutable uint64_t sample_counter_ = 0;
};

void
requireInputs(const TransformSpec &spec, size_t n)
{
    dsi_assert(spec.inputs.size() == n,
               "%s expects %zu inputs, got %zu",
               opKindName(spec.kind), n, spec.inputs.size());
}

} // namespace

std::unique_ptr<Transform>
compileTransform(const TransformSpec &spec)
{
    switch (spec.kind) {
      case OpKind::Cartesian:
        requireInputs(spec, 2);
        return std::make_unique<CartesianOp>(spec);
      case OpKind::Bucketize:
        requireInputs(spec, 1);
        return std::make_unique<BucketizeOp>(spec);
      case OpKind::ComputeScore:
        requireInputs(spec, 1);
        return std::make_unique<ComputeScoreOp>(spec);
      case OpKind::Enumerate:
        requireInputs(spec, 1);
        return std::make_unique<EnumerateOp>(spec);
      case OpKind::PositiveModulus:
        requireInputs(spec, 1);
        return std::make_unique<PositiveModulusOp>(spec);
      case OpKind::IdListTransform:
        requireInputs(spec, 2);
        return std::make_unique<IdListTransformOp>(spec);
      case OpKind::BoxCox:
        requireInputs(spec, 1);
        return std::make_unique<BoxCoxOp>(spec);
      case OpKind::Logit:
        requireInputs(spec, 1);
        return std::make_unique<LogitOp>(spec);
      case OpKind::MapId:
        requireInputs(spec, 1);
        return std::make_unique<MapIdOp>(spec);
      case OpKind::FirstX:
        requireInputs(spec, 1);
        return std::make_unique<FirstXOp>(spec);
      case OpKind::GetLocalHour:
        requireInputs(spec, 1);
        return std::make_unique<GetLocalHourOp>(spec);
      case OpKind::SigridHash:
        requireInputs(spec, 1);
        return std::make_unique<SigridHashOp>(spec);
      case OpKind::NGram:
        requireInputs(spec, 1);
        return std::make_unique<NGramOp>(spec);
      case OpKind::Onehot:
        requireInputs(spec, 1);
        return std::make_unique<OnehotOp>(spec);
      case OpKind::Clamp:
        requireInputs(spec, 1);
        return std::make_unique<ClampOp>(spec);
      case OpKind::Sampling:
        requireInputs(spec, 0);
        return std::make_unique<SamplingOp>(spec);
    }
    dsi_panic("unknown op kind %d", static_cast<int>(spec.kind));
}

} // namespace dsi::transforms
