#include "dsm/batch.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "dsm/wire.h"

namespace mc::dsm {

namespace {
constexpr std::uint64_t kVarBits = 32;
constexpr std::uint64_t kFlagBits = 8;
constexpr std::uint64_t kWeightBits = 64 - kVarBits - kFlagBits;
// Option bits of a record's wire flags, derived by the encoder and stripped
// by the decoder: which optional words follow, and whether the record's
// clock equals the frame's base clock (no clock words at all).
constexpr std::uint64_t kHasWriter = 0x10;
constexpr std::uint64_t kHasEpoch = 0x20;
constexpr std::uint64_t kHasBaseline = 0x40;
constexpr std::uint64_t kClockIsBase = 0x80;
constexpr std::uint64_t kOptionBits = 0xF0;
constexpr std::size_t kMaxProcs = 64;

std::uint64_t option_bits(const BatchRecord& r) {
  return (r.writer != kNoProc ? kHasWriter : 0) | (r.epoch != 0 ? kHasEpoch : 0) |
         (r.baseline != 0 ? kHasBaseline : 0);
}
}  // namespace

net::Message encode_frame(std::span<const BatchRecord> recs, std::size_t clock_words) {
  MC_CHECK_MSG(clock_words <= kMaxProcs, "frame clock-delta masks assume <= 64 processes");
  net::Message m;
  m.kind = kUpdate;
  if (recs.empty()) {
    MC_CHECK_MSG(clock_words != 0, "only vector-clock frames may be empty");
    return m;  // no base clock marks the frame empty
  }
  std::array<std::uint64_t, kMaxProcs> base{};
  if (clock_words != 0) {
    for (const BatchRecord& r : recs) MC_CHECK(r.vc.size() == clock_words);
    std::copy_n(recs[0].vc.components().begin(), clock_words, base.begin());
    for (const BatchRecord& r : recs.subspan(1)) {
      for (ProcId p = 0; p < clock_words; ++p) base[p] = std::min(base[p], r.vc[p]);
    }
  }
  // Enough for any one-record frame, so an inline write allocates once.
  m.payload.reserve(clock_words + 3 * recs.size());
  m.payload.insert(m.payload.end(), base.begin(), base.begin() + clock_words);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const BatchRecord& r = recs[k];
    MC_CHECK(r.var < (std::uint64_t{1} << kVarBits));
    MC_CHECK(r.flags < kHasWriter);
    MC_CHECK(r.weight < (std::uint64_t{1} << kWeightBits));
    std::uint64_t mask = 0;
    for (ProcId p = 0; p < clock_words; ++p) {
      if (r.vc[p] != base[p]) mask |= std::uint64_t{1} << p;
    }
    const std::uint64_t flags =
        r.flags | option_bits(r) | (clock_words != 0 && mask == 0 ? kClockIsBase : 0);
    const std::uint64_t w0 = r.var | (flags << kVarBits) | (r.weight << (kVarBits + kFlagBits));
    if (k == 0) {
      m.a = w0;
      m.c = r.value;
      m.d = r.seq;
    } else {
      m.payload.insert(m.payload.end(), {w0, r.value, r.seq});
    }
    if (flags & kHasWriter) m.payload.push_back(r.writer);
    if (flags & kHasEpoch) m.payload.push_back(r.epoch);
    if (flags & kHasBaseline) m.payload.push_back(r.baseline);
    if (mask == 0) continue;
    m.payload.push_back(mask);
    for (ProcId p = 0; p < clock_words; ++p) {
      if (mask & (std::uint64_t{1} << p)) m.payload.push_back(r.vc[p] - base[p]);
    }
  }
  return m;
}

FrameReader::FrameReader(const net::Message& m, std::size_t clock_words) : m_(m) {
  MC_CHECK(m.kind == kUpdate || m.kind == kFetchBulkResp || m.kind == kViewState);
  if (clock_words != 0) {
    if (m.payload.empty()) {
      first_ = false;  // an empty frame: no base clock, no records
      return;
    }
    MC_CHECK(clock_words <= kMaxProcs && m.payload.size() >= clock_words);
    base_ = std::span(m.payload).first(clock_words);
    pos_ = clock_words;
  }
}

void FrameReader::next(BatchRecord& r) {
  MC_CHECK(!done());
  const auto take = [this] {
    MC_CHECK(pos_ < m_.payload.size());
    return m_.payload[pos_++];
  };
  const std::uint64_t w0 = first_ ? m_.a : take();
  r.value = first_ ? m_.c : take();
  r.seq = first_ ? m_.d : take();
  first_ = false;
  r.var = static_cast<VarId>(w0 & ((std::uint64_t{1} << kVarBits) - 1));
  const std::uint64_t flags = (w0 >> kVarBits) & ((std::uint64_t{1} << kFlagBits) - 1);
  r.flags = flags & ~kOptionBits;
  r.weight = w0 >> (kVarBits + kFlagBits);
  r.writer = (flags & kHasWriter) ? static_cast<ProcId>(take()) : kNoProc;
  r.epoch = (flags & kHasEpoch) ? take() : 0;
  r.baseline = (flags & kHasBaseline) ? take() : 0;
  if (base_.empty()) {
    MC_CHECK((flags & kClockIsBase) == 0);
    r.vc = VectorClock();
    return;
  }
  r.vc.assign(base_);
  if (flags & kClockIsBase) return;
  const std::uint64_t mask = take();
  MC_CHECK(mask != 0 && (base_.size() == kMaxProcs || mask >> base_.size() == 0));
  for (ProcId p = 0; p < base_.size(); ++p) {
    if (mask & (std::uint64_t{1} << p)) r.vc.set(p, base_[p] + take());
  }
}

std::vector<BatchRecord> decode_frame(const net::Message& m, std::size_t clock_words) {
  std::vector<BatchRecord> recs;
  for (FrameReader reader(m, clock_words); !reader.done();) {
    reader.next(recs.emplace_back());
  }
  return recs;
}

}  // namespace mc::dsm
