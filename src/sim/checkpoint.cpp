#include "sim/checkpoint.hpp"

#include <stdexcept>

#include "sim/stream.hpp"

namespace moldsched {

void StreamCheckpoint::clear() {
  m = 1;
  now = 0.0;
  watermark = 0.0;
  finished = false;
  broken = false;
  reservations.clear();
  jobs_decided = 0;
  cmax = 0.0;
  weighted_completion_sum = 0.0;
  weighted_flow_sum = 0.0;
  batch_starts.clear();
  job_release.clear();
  job_weight.clear();
  job_min_procs.clear();
  job_times_begin.clear();
  job_times.clear();
  div_remaining.clear();
  div_weight.clear();
  div_release.clear();
  divisible_weighted_completion_sum = 0.0;
}

// ---------------------------------------------------------------------------
// OnlineStream snapshot / resume (member functions live here so the stream
// header stays free of the checkpoint type).

void OnlineStream::checkpoint(StreamCheckpoint& out) const {
  if (!open_) {
    throw std::logic_error("OnlineStream: checkpoint of a closed stream");
  }
  out.clear();
  out.m = m_;
  out.now = now_;
  out.watermark = watermark_;
  out.finished = finished_;
  out.broken = broken_;
  out.reservations = reservations_;
  out.jobs_decided = static_cast<std::int64_t>(next_);
  out.cmax = result_.cmax;
  out.weighted_completion_sum = result_.weighted_completion_sum;
  out.weighted_flow_sum = result_.weighted_flow_sum;
  out.batch_starts = result_.batch_starts;
  out.job_times_begin.push_back(0);
  for (std::size_t j = next_; j < jobs_live_; ++j) {
    const OnlineJob& job = jobs_[j];
    out.job_release.push_back(job.release);
    out.job_weight.push_back(job.task.weight());
    out.job_min_procs.push_back(job.task.min_procs());
    out.job_times.insert(out.job_times.end(), job.task.times().begin(),
                         job.task.times().end());
    out.job_times_begin.push_back(
        static_cast<std::int64_t>(out.job_times.size()));
  }
  for (std::size_t d = 0; d < divisible_live_; ++d) {
    out.div_remaining.push_back(divisible_[d].remaining);
    out.div_weight.push_back(divisible_[d].weight);
    out.div_release.push_back(divisible_[d].release);
  }
  out.divisible_weighted_completion_sum = divisible_wcs_;
}

void OnlineStream::restore(const StreamCheckpoint& ckpt) {
  if (ckpt.m < 1) throw std::invalid_argument("OnlineStream: restore m < 1");
  for (const auto& r : ckpt.reservations) {
    if (r.proc < 0 || r.proc >= ckpt.m || !(r.finish > r.start)) {
      throw std::invalid_argument("OnlineStream: restore bad reservation");
    }
  }
  if (ckpt.jobs_decided < 0) {
    throw std::invalid_argument("OnlineStream: restore negative frontier");
  }
  const std::size_t pending = ckpt.pending_jobs();
  if (ckpt.job_weight.size() != pending ||
      ckpt.job_min_procs.size() != pending ||
      ckpt.job_times_begin.size() != pending + 1 ||
      ckpt.job_times_begin.front() != 0 ||
      ckpt.job_times_begin.back() !=
          static_cast<std::int64_t>(ckpt.job_times.size())) {
    throw std::invalid_argument("OnlineStream: restore inconsistent jobs");
  }
  if (ckpt.div_weight.size() != ckpt.div_remaining.size() ||
      ckpt.div_release.size() != ckpt.div_remaining.size()) {
    throw std::invalid_argument(
        "OnlineStream: restore inconsistent divisible state");
  }
  // A throwing restore (e.g. a malformed pending task rejected by the
  // MoldableTask invariants below) leaves the session closed, never
  // half-resumed.
  open_ = false;
  m_ = ckpt.m;
  now_ = ckpt.now;
  watermark_ = ckpt.watermark;
  finished_ = ckpt.finished;
  broken_ = ckpt.broken;
  reservations_ = ckpt.reservations;

  // Rebuild the accumulated result. The decided prefix was delivered by
  // the original session, so its entries restore as zeroed placeholders —
  // they only exist to keep stream-global job ids (and the append paths
  // that extend these arrays) valid.
  const auto decided = static_cast<std::size_t>(ckpt.jobs_decided);
  result_.reset(static_cast<int>(decided));
  result_.cmax = ckpt.cmax;
  result_.weighted_completion_sum = ckpt.weighted_completion_sum;
  result_.weighted_flow_sum = ckpt.weighted_flow_sum;
  result_.batch_starts = ckpt.batch_starts;
  result_.num_batches = static_cast<int>(ckpt.batch_starts.size());
  next_ = decided;

  jobs_live_ = decided + pending;
  if (jobs_.size() < jobs_live_) jobs_.resize(jobs_live_);
  for (std::size_t i = 0; i < pending; ++i) {
    const auto begin = static_cast<std::size_t>(ckpt.job_times_begin[i]);
    const auto end = static_cast<std::size_t>(ckpt.job_times_begin[i + 1]);
    if (end < begin || end > ckpt.job_times.size()) {
      throw std::invalid_argument("OnlineStream: restore inconsistent jobs");
    }
    OnlineJob& job = jobs_[decided + i];
    job.task = MoldableTask(
        std::vector<double>(ckpt.job_times.begin() +
                                static_cast<std::ptrdiff_t>(begin),
                            ckpt.job_times.begin() +
                                static_cast<std::ptrdiff_t>(end)),
        ckpt.job_weight[i], ckpt.job_min_procs[i]);
    job.release = ckpt.job_release[i];
    // Per-job mirror entries of the accumulated result, exactly as
    // append_batch_job pushed them in the original session.
    result_.schedule.start.push_back(0.0);
    result_.schedule.duration.push_back(0.0);
    result_.schedule.proc_begin.push_back(0);
    result_.schedule.proc_count.push_back(0);
    result_.completion.push_back(0.0);
    result_.flow.push_back(0.0);
  }

  divisible_live_ = ckpt.div_remaining.size();
  if (divisible_.size() < divisible_live_) divisible_.resize(divisible_live_);
  for (std::size_t d = 0; d < divisible_live_; ++d) {
    divisible_[d] = PendingDivisible{ckpt.div_remaining[d],
                                     ckpt.div_weight[d], ckpt.div_release[d]};
  }
  divisible_wcs_ = ckpt.divisible_weighted_completion_sum;

  // Checkpoints carry confirmed state only; staged speculative decisions
  // are pure recomputable staging and restore as "nothing staged". The
  // restored session re-speculates on its next feed if enabled.
  speculate_ = false;
  spec_head_ = 0;
  spec_count_ = 0;
  spec_decided_ = 0;
  spec_committed_ = 0;
  spec_rolled_back_ = 0;
  open_ = true;
}

}  // namespace moldsched
