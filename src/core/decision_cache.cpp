#include "core/decision_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace moldsched {

namespace {

/// One SplitMix64 finalization round over (h ^ v): cheap, well-mixed, and
/// already the project's canonical bit mixer (util/rng.hpp).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t z = (h ^ v) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void check_quantize_steps(int steps, const char* what) {
  if (steps < 1 || steps > kMaxQuantizeSteps) {
    throw std::invalid_argument(std::string(what) +
                                ": quantize_steps outside [1, " +
                                std::to_string(kMaxQuantizeSteps) + "]");
  }
}

constexpr int kCellBits = 10;  // 1024 cells over the mantissa range [1, 2)
constexpr int kFractionBits = 52;
constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << kFractionBits) - 1;
constexpr std::uint64_t kExponentOfOne = std::uint64_t{1023} << kFractionBits;

std::uint64_t bits_of(double v) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::int64_t exponent_field(std::uint64_t bits) noexcept {
  return static_cast<std::int64_t>((bits >> kFractionBits) & 0x7FF);
}

double double_of(std::uint64_t bits) noexcept {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

}  // namespace

void SignatureScratch::prepare(int steps) {
  if (steps == steps_) return;
  steps_ = 0;  // stale until both tables are rebuilt
  thresholds_.resize(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i < steps; ++i) {
    thresholds_[static_cast<std::size_t>(i)] =
        std::exp2(static_cast<double>(i) / steps);
  }
  // Pinned, so the walk below always stops inside [1, 2).
  thresholds_[static_cast<std::size_t>(steps)] = 2.0;
  cells_.resize(std::size_t{1} << kCellBits);
  int i = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const double cell_floor =
        1.0 + static_cast<double>(c) / static_cast<double>(cells_.size());
    while (thresholds_[static_cast<std::size_t>(i) + 1] <= cell_floor) ++i;
    cells_[c] = i;
  }
  steps_ = steps;
}

std::int64_t SignatureScratch::quantize(double ratio) const noexcept {
  std::uint64_t bits = bits_of(ratio);
  std::int64_t exponent = exponent_field(bits);
  if (exponent == 0x7FF) return std::numeric_limits<std::int64_t>::max();
  if (exponent == 0) {
    if (ratio == 0.0) return std::numeric_limits<std::int64_t>::min();
    // Subnormal: scaling by 2^64 is exact and makes it normal.
    bits = bits_of(ratio * 0x1p64);
    exponent = exponent_field(bits) - 64;
  }
  const std::uint64_t fraction = bits & kFractionMask;
  const double mantissa = double_of(fraction | kExponentOfOne);
  const auto cell =
      static_cast<std::size_t>(fraction >> (kFractionBits - kCellBits));
  auto i = static_cast<std::size_t>(cells_[cell]);
  while (thresholds_[i + 1] <= mantissa) ++i;
  return (exponent - 1023) * steps_ + static_cast<std::int64_t>(i);
}

std::int64_t SignatureScratch::bucket(double ratio, int steps) {
  check_quantize_steps(steps, "SignatureScratch::bucket");
  prepare(steps);
  return quantize(ratio);
}

InstanceSignature canonical_signature(const Instance& instance,
                                      int quantize_steps,
                                      SignatureScratch& scratch) {
  check_quantize_steps(quantize_steps, "canonical_signature");
  scratch.prepare(quantize_steps);
  const int n = instance.num_tasks();
  std::uint64_t h = mix(0x6D6F6C6473636864ULL,  // "moldschd"
                        static_cast<std::uint64_t>(instance.procs()));
  h = mix(h, static_cast<std::uint64_t>(n));
  if (n == 0) return InstanceSignature{h};

  // Anchor on the instance's own t_0 (a TimeGrid with cmax_estimate ==
  // tmin puts t_0 at exactly tmin), then mix the anchor's absolute bucket
  // in so globally rescaled instances do not alias.
  const double anchor = instance.tmin();
  h = mix(h, static_cast<std::uint64_t>(scratch.quantize(anchor)));

  scratch.task_hashes.clear();
  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = instance.task(t);
    std::uint64_t th = mix(0x7461736B0000ULL,  // "task"
                           static_cast<std::uint64_t>(task.min_procs()));
    th = mix(th, static_cast<std::uint64_t>(task.max_procs()));
    // Weight is a free scale (no tmin relation): bucket it absolutely.
    th = mix(th, static_cast<std::uint64_t>(scratch.quantize(task.weight())));
    for (const double v : task.times()) {
      th = mix(th, static_cast<std::uint64_t>(scratch.quantize(v / anchor)));
    }
    scratch.task_hashes.push_back(th);
  }
  // Sorting the per-task hashes makes the signature a multiset
  // fingerprint: permutation- and resubmission-invariant.
  std::sort(scratch.task_hashes.begin(), scratch.task_hashes.end());
  for (const std::uint64_t th : scratch.task_hashes) h = mix(h, th);
  return InstanceSignature{h};
}

DecisionCache::DecisionCache(DecisionCacheOptions options)
    : options_(options) {
  if (options_.capacity < 1) {
    throw std::invalid_argument("DecisionCache: capacity < 1");
  }
  if (options_.shards < 1) {
    throw std::invalid_argument("DecisionCache: shards < 1");
  }
  check_quantize_steps(options_.quantize_steps, "DecisionCache");
  const std::size_t shard_count =
      std::min(static_cast<std::size_t>(options_.shards), options_.capacity);
  shards_.reserve(shard_count);
  const std::size_t base = options_.capacity / shard_count;
  const std::size_t extra = options_.capacity % shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->records.resize(base + (s < extra ? 1 : 0));
    shard->seen.resize(shard->records.size());
    shards_.push_back(std::move(shard));
  }
}

DecisionCache::Shard& DecisionCache::shard_for(std::uint64_t hash) noexcept {
  // High bits pick the shard; low bits already drove record comparison.
  const std::size_t index =
      static_cast<std::size_t>(hash >> 32) % shards_.size();
  return *shards_[index];
}

bool DecisionCache::matches(const Record& r, std::uint64_t sig,
                            std::uint64_t policy_key,
                            const Instance& instance) noexcept {
  if (!r.live || r.sig != sig || r.policy_key != policy_key) return false;
  if (r.m != instance.procs() || r.n != instance.num_tasks()) return false;
  // Exact in-order descriptor verification: quantization buckets, it never
  // decides. A permuted resubmission fails here by design (see header).
  for (int t = 0; t < r.n; ++t) {
    const MoldableTask& task = instance.task(t);
    const auto e = static_cast<std::size_t>(t);
    if (r.weight[e] != task.weight()) return false;
    if (r.min_procs[e] != task.min_procs()) return false;
    const auto begin = static_cast<std::size_t>(r.times_begin[e]);
    const auto end = static_cast<std::size_t>(r.times_begin[e + 1]);
    const std::vector<double>& times = task.times();
    if (end - begin != times.size()) return false;
    for (std::size_t k = 0; k < times.size(); ++k) {
      if (r.times[begin + k] != times[k]) return false;
    }
  }
  return true;
}

bool DecisionCache::lookup(const InstanceSignature& sig,
                           std::uint64_t policy_key, const Instance& instance,
                           FlatPlacements& out, DemtDiagnostics& diag) {
  if (policy_key == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Shard& shard = shard_for(sig.hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t i = 0; i < shard.live; ++i) {
      Record& r = shard.records[i];
      if (!matches(r, sig.hash, policy_key, instance)) continue;
      r.referenced = true;
      // Replay: the cached doubles verbatim — bit-identical to the run
      // that produced them. assign() reuses `out`'s capacity.
      out.start.assign(r.start.begin(), r.start.end());
      out.duration.assign(r.duration.begin(), r.duration.end());
      out.proc_begin.assign(r.proc_begin.begin(), r.proc_begin.end());
      out.proc_count.assign(r.proc_count.begin(), r.proc_count.end());
      out.proc_ids.assign(r.proc_ids.begin(), r.proc_ids.end());
      diag = r.diag;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void DecisionCache::insert(const InstanceSignature& sig,
                           std::uint64_t policy_key, const Instance& instance,
                           const FlatPlacements& flat,
                           const DemtDiagnostics& diag) {
  if (policy_key == 0) return;
  Shard& shard = shard_for(sig.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Doorkeeper: the first sighting of (sig, policy_key) only sets its bit,
  // so a shape that never recurs costs no record. Once half the bits are
  // set they are all cleared, which keeps the chance that a one-off finds
  // its bit already set (and is stored anyway) below one half.
  const std::uint64_t key = mix(sig.hash, policy_key);
  std::uint64_t& word = shard.seen[key % shard.seen.size()];
  const std::uint64_t bit = std::uint64_t{1} << (key >> 58);
  if ((word & bit) == 0) {
    if (2 * shard.seen_bits >= 64 * shard.seen.size()) {
      std::fill(shard.seen.begin(), shard.seen.end(), 0);
      shard.seen_bits = 0;
    }
    word |= bit;
    ++shard.seen_bits;
    return;
  }
  Record* victim = nullptr;
  for (std::size_t i = 0; i < shard.live; ++i) {
    Record& r = shard.records[i];
    if (matches(r, sig.hash, policy_key, instance)) {
      victim = &r;  // refresh in place (two strands raced on the miss)
      break;
    }
  }
  if (victim == nullptr) {
    if (shard.live < shard.records.size()) {
      victim = &shard.records[shard.live++];
    } else {
      // CLOCK: sweep the hand, clearing second-chance bits, until a
      // record without one comes up. Terminates within two sweeps.
      for (;;) {
        Record& r = shard.records[shard.hand];
        shard.hand = (shard.hand + 1) % shard.records.size();
        if (r.referenced) {
          r.referenced = false;
          continue;
        }
        victim = &r;
        evictions_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  Record& r = *victim;
  r.sig = sig.hash;
  r.policy_key = policy_key;
  r.m = instance.procs();
  r.n = instance.num_tasks();
  // Descriptors: clear + push_back recycles the victim's capacity.
  r.weight.clear();
  r.min_procs.clear();
  r.times_begin.clear();
  r.times.clear();
  for (int t = 0; t < r.n; ++t) {
    const MoldableTask& task = instance.task(t);
    r.weight.push_back(task.weight());
    r.min_procs.push_back(task.min_procs());
    r.times_begin.push_back(static_cast<int>(r.times.size()));
    const std::vector<double>& times = task.times();
    r.times.insert(r.times.end(), times.begin(), times.end());
  }
  r.times_begin.push_back(static_cast<int>(r.times.size()));
  r.start.assign(flat.start.begin(), flat.start.end());
  r.duration.assign(flat.duration.begin(), flat.duration.end());
  r.proc_begin.assign(flat.proc_begin.begin(), flat.proc_begin.end());
  r.proc_count.assign(flat.proc_count.begin(), flat.proc_count.end());
  r.proc_ids.assign(flat.proc_ids.begin(), flat.proc_ids.end());
  r.diag = diag;
  r.live = true;
  r.referenced = true;
  inserts_.fetch_add(1, std::memory_order_relaxed);
}

void DecisionCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (Record& r : shard->records) {
      r.live = false;
      r.referenced = false;
    }
    shard->live = 0;
    shard->hand = 0;
    std::fill(shard->seen.begin(), shard->seen.end(), 0);
    shard->seen_bits = 0;
  }
}

DecisionCacheStats DecisionCache::stats() const {
  DecisionCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (std::size_t i = 0; i < shard->live; ++i) {
      if (shard->records[i].live) ++out.size;
    }
  }
  return out;
}

}  // namespace moldsched
