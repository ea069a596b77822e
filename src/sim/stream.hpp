/// \file stream.hpp
/// Streaming (incremental) form of the on-line batch framework — the
/// paper's §5 job mix served as a live request stream instead of a
/// pre-collected job list.
///
/// The off-line simulator (sim/online.hpp) receives every job up front;
/// OnlineStream receives them as they happen. The caller feeds arrivals in
/// release order together with a **watermark** — a promise that every
/// future arrival is released at or after it. A batch decision is final
/// exactly when the watermark passes the batch's open instant (no future
/// arrival can join it any more), so a stream fed chunk by chunk emits the
/// *same* decisions, bit for bit, as the off-line run on the completed job
/// list: both sides share `online_decide_batch` and the release-order
/// tie-break. `finish()` is an infinite watermark.
///
/// §5 job mix: an arrival is moldable, rigid (a moldable task whose only
/// allowed allotment is its fixed size), or a divisible load. Moldable and
/// rigid arrivals are batch jobs; divisible arrivals are background filler
/// poured into the idle holes of each batch decision via the flat
/// divisible filler (sim/divisible.hpp), never extending the batch window
/// and never touching a reserved processor. Unplaced divisible work
/// carries over to later batches; whatever remains at finish() is drained
/// onto the machine after the last batch (a divisible-only "batch" whose
/// window the same reservation fixpoint clears). Divisible fills never
/// change moldable/rigid decisions, so a moldable-only comparison against
/// the off-line simulator stays exact even in mixed streams.
///
/// Allocation contract: every buffer — fed jobs, accumulated results,
/// batch instance, fill scratch, deliveries — keeps its capacity across
/// open()/feed()/finish() cycles, so a warm stream session (one no larger
/// than a previous session on the same pooled object) processes arrivals
/// without any heap allocation (gated per arrival by
/// Alloc.StreamArrivalsFlatList in tests/alloc/). Note the flip side: a
/// session retains O(total arrivals) state for its whole life — result()
/// is the accumulated run — so memory for a very long-lived stream grows
/// with it and is reclaimed (as pooled capacity) only at close;
/// compacting delivered prefixes is a candidate extension (ROADMAP).
///
/// Error contract: feed() validates the watermark and every arrival
/// *before* mutating any state — a throwing feed leaves the stream exactly
/// as it was. An error thrown mid-decision (from the policy, a malformed
/// policy output, or a job that cannot fit the reduced machine) marks the
/// stream broken; further feeds throw, and finish() closes it quietly with
/// an empty final delivery.
///
/// Operator documentation (lifecycle, ordering/determinism contracts,
/// serving integration, tuning): docs/ONLINE.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/divisible.hpp"
#include "sim/online.hpp"

namespace moldsched {

/// The three job types of the paper's §5 mix.
enum class ArrivalKind {
  Moldable,   ///< allotment chosen by the per-batch policy
  Rigid,      ///< fixed allotment (min_procs == max_procs)
  Divisible,  ///< bag of work, split arbitrarily into idle holes
};

/// One streamed arrival. `task` carries Moldable/Rigid payloads, `load`
/// carries Divisible payloads; the other member is ignored.
struct StreamArrival {
  ArrivalKind kind = ArrivalKind::Moldable;
  MoldableTask task;
  DivisibleJob load;
  double release = 0.0;
};

/// Convenience constructors for the three arrival kinds.
[[nodiscard]] StreamArrival moldable_arrival(MoldableTask task,
                                             double release);
/// A rigid job runs on exactly `procs` processors for `duration`.
[[nodiscard]] StreamArrival rigid_arrival(int procs, double duration,
                                          double weight, double release);
[[nodiscard]] StreamArrival divisible_arrival(double work, double weight,
                                              double release);

/// Everything one feed/finish call finalised, in stream order. Buffers
/// keep capacity across reuse, so recycling one delivery object through a
/// serving loop is allocation-free.
struct StreamDelivery {
  /// Stream-global id of the first newly decided batch job; entry e of
  /// `placements`/`completion` answers job first_job + e. Batch-job ids
  /// count moldable+rigid arrivals in fed order; divisible arrivals have
  /// their own id space (`divisible_done`).
  int first_job = 0;
  FlatPlacements placements;        ///< global time and processor ids
  std::vector<double> completion;   ///< per newly decided batch job
  std::vector<double> batch_starts; ///< open instants of new batches
  std::vector<DivisibleChunk> chunks;       ///< new divisible chunks (global)
  std::vector<int> divisible_done;          ///< divisible ids now complete
  std::vector<double> divisible_completion; ///< parallel to divisible_done
  bool final_delivery = false;      ///< true for the finish() delivery

  // Running stream totals after this call (batch jobs only, matching
  // FlatOnlineResult; divisible filler tracked separately).
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  double weighted_flow_sum = 0.0;
  double divisible_weighted_completion_sum = 0.0;
  int num_batches = 0;

  [[nodiscard]] int num_jobs() const noexcept { return placements.size(); }

  /// Empty all fields; capacity kept.
  void clear();
};

/// One open streaming session. The serving layer
/// (serve/async_scheduler.hpp) keeps each open stream's session in its
/// stream table and runs the stream's feeds in order on the strand of the
/// shard it is pinned to; the class itself is not thread-safe.
class OnlineStream {
 public:
  /// Start (or restart) a session on an m-processor machine. Reservations
  /// are copied. Throws std::invalid_argument on m < 1 or a bad
  /// reservation. Reopening a live session abandons its state.
  void open(int m, const std::vector<NodeReservation>& reservations);

  /// Feed `count` arrivals and advance the watermark. Arrival releases
  /// must be finite, non-decreasing, >= the previous watermark, and <= the
  /// new one; the watermark must not move backwards. Divisible work and
  /// weight must be finite and positive. Every batch decision runs
  /// `policy.schedule_into` inside `policy_ws` (a workspace the policy
  /// made; one per stream strand), allocation-free beyond what the policy
  /// itself allocates. Decisions that became final are written into `out`
  /// (cleared first). Throws std::invalid_argument on a contract violation
  /// — null `arrivals` with count > 0 included — (state untouched) and
  /// std::logic_error on a closed/broken stream.
  void feed(const StreamArrival* arrivals, std::size_t count,
            double watermark, const SchedulingPolicy& policy,
            PolicyWorkspace& policy_ws, StreamDelivery& out);

  /// Close the stream: decide every remaining batch, drain leftover
  /// divisible work, and deliver with final_delivery == true. A broken
  /// stream closes quietly with an empty final delivery.
  void finish(const SchedulingPolicy& policy, PolicyWorkspace& policy_ws,
              StreamDelivery& out);

  /// Enable speculative frontier decisions (default off). With speculation
  /// on, batches whose open instant is still ahead of the watermark are
  /// decided anyway and *staged* off to the side; a later watermark that
  /// confirms no late arrival commits the staged decision (replaying the
  /// settled placements — bit-identical to deciding fresh), while an
  /// arrival that would have joined a staged batch rolls the stage back
  /// and the batch is re-decided normally. Deliveries and result() carry
  /// confirmed state only, so toggling speculation never changes any
  /// observable output — only when the deciding work happens.
  /// Turning it off rolls back anything currently staged.
  void set_speculate(bool on);
  [[nodiscard]] bool speculate() const noexcept { return speculate_; }
  /// Batches decided ahead of the watermark this session.
  [[nodiscard]] std::uint64_t speculated_batches() const noexcept {
    return spec_decided_;
  }
  /// Staged decisions the watermark later confirmed.
  [[nodiscard]] std::uint64_t committed_speculations() const noexcept {
    return spec_committed_;
  }
  /// Staged decisions discarded because a late arrival (or a toggle)
  /// invalidated them.
  [[nodiscard]] std::uint64_t rolled_back_speculations() const noexcept {
    return spec_rolled_back_;
  }

  /// True while the stream accepts feeds (open and not yet finished).
  [[nodiscard]] bool is_open() const noexcept { return open_ && !finished_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] bool broken() const noexcept { return broken_; }
  [[nodiscard]] int procs() const noexcept { return m_; }
  [[nodiscard]] double watermark() const noexcept { return watermark_; }
  [[nodiscard]] int batch_jobs_decided() const noexcept {
    return static_cast<int>(next_);
  }
  /// Divisible work fed but not yet poured into a hole.
  [[nodiscard]] double divisible_work_pending() const noexcept;

  /// Accumulated batch-job results so far (indexed by stream job id) —
  /// after finish() this equals what online_batch_schedule_into computes
  /// for the full job list. Valid until the next open().
  [[nodiscard]] const FlatOnlineResult& result() const noexcept {
    return result_;
  }

 private:
  struct PendingDivisible {
    double remaining = 0.0;
    double weight = 0.0;
    double release = 0.0;
  };

  /// One speculative batch decision, staged off to the side. Live stream
  /// state stays confirmed-only: a record holds everything a commit needs
  /// to replay the decision bit-identically (the settled batch-local
  /// placements plus the divisible fill it implies), and a rollback is
  /// simply discarding the record. Records are pooled — the live window is
  /// spec_pool_[spec_head_, spec_count_).
  struct SpecRecord {
    std::size_t first_job = 0;  ///< frontier before the batch
    std::size_t last_job = 0;   ///< frontier after the batch
    double member_open = 0.0;   ///< pre-fixpoint open (membership/finality)
    double clock_open = 0.0;    ///< settled batch start (batch_starts value)
    double clock_after = 0.0;   ///< clock_open + batch makespan
    std::vector<int> batch_jobs;     ///< stream job ids of the batch
    FlatPlacements batch;            ///< settled batch-local placements
    std::vector<int> free_procs;     ///< processors the batch may use
    // Staged divisible fill: chunks in global coordinates plus the
    // per-candidate residue updates the fill implies, applied at commit.
    std::vector<DivisibleChunk> chunks;
    std::vector<int> div_ids;
    std::vector<double> div_remaining_after;
    std::vector<std::uint8_t> div_done;
    std::vector<double> div_completion;
  };

  void append_batch_job(const StreamArrival& arrival);
  void advance(bool finishing, const SchedulingPolicy& policy,
               PolicyWorkspace& policy_ws, StreamDelivery& out);
  void fill_batch_divisible(double open_time, double horizon,
                            StreamDelivery& out);
  void drain_divisible(StreamDelivery& out);
  void collect_divisible_candidates(double open_time);
  void settle_fill(double open_time, StreamDelivery& out);
  void speculate_ahead(const SchedulingPolicy& policy,
                       PolicyWorkspace& policy_ws);
  void stage_fill(SpecRecord& rec);
  void commit_record(const SpecRecord& rec, StreamDelivery& out);
  void invalidate_speculation(const StreamArrival* arrivals,
                              std::size_t count);
  void drop_speculation(std::size_t from);

  int m_ = 0;
  double now_ = 0.0;
  double watermark_ = 0.0;
  bool open_ = false;
  bool finished_ = false;
  bool broken_ = false;
  std::vector<NodeReservation> reservations_;

  OnlineWorkspace ws_;
  FlatOnlineResult result_;
  std::vector<OnlineJob> jobs_;  ///< fed batch jobs, pooled shells
  std::size_t jobs_live_ = 0;
  std::size_t next_ = 0;  ///< decision frontier into jobs_

  std::vector<PendingDivisible> divisible_;  ///< pooled, id == index
  std::size_t divisible_live_ = 0;
  double divisible_wcs_ = 0.0;
  std::vector<int> div_candidates_;      ///< ids active for the open fill
  std::vector<DivisibleJob> div_batch_;  ///< their remaining work/weight
  std::vector<double> div_last_finish_;  ///< per candidate, this fill only
  DivisibleFillWorkspace fill_ws_;
  DivisibleFillResult fill_out_;
  FlatPlacements empty_batch_;  ///< zero-entry placements for the drain

  bool speculate_ = false;
  std::vector<SpecRecord> spec_pool_;  ///< pooled records, capacity kept
  std::size_t spec_head_ = 0;   ///< first live staged record
  std::size_t spec_count_ = 0;  ///< one past the last live staged record
  std::vector<double> spec_div_remaining_;  ///< shadow residue for staging
  std::uint64_t spec_decided_ = 0;
  std::uint64_t spec_committed_ = 0;
  std::uint64_t spec_rolled_back_ = 0;
};

}  // namespace moldsched
