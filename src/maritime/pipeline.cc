#include "maritime/pipeline.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/thread_pool.h"

namespace maritime::surveillance {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SurveillancePipeline::SurveillancePipeline(const KnowledgeBase* kb,
                                           PipelineConfig config)
    : kb_(kb),
      config_(config),
      pool_(config.pool != nullptr ? config.pool
                                   : &common::ThreadPool::Shared()),
      tracker_(config.tracker, config.tracker_shards, pool_) {
  RecognizerConfig rc;
  rc.window = config_.window;
  rc.ce = config_.ce;
  rc.incremental = config_.incremental_recognition;
  rc.engine = config_.recognition_engine;
  rc.parallel_keys = config_.parallel_recognition_keys;
  recognizer_ = std::make_unique<PartitionedRecognizer>(
      *kb_, rc, config_.partitions, pool_);
  if (config_.archive) {
    archiver_ = std::make_unique<mod::HermesArchiver>(kb_);
  }
}

SurveillancePipeline::~SurveillancePipeline() {
  // Only the most recently staged slide can still have its task running
  // (staging is sequential); wait so the task cannot touch freed members.
  if (!staged_.empty()) WaitStaged(staged_.back().get());
}

SlideReport SurveillancePipeline::RunSlide(
    Timestamp q, std::span<const stream::PositionTuple> batch) {
  // A caller mixing RunSlide with StageSlide must not reorder slides past
  // the ones already in flight.
  DrainStagedSlides();
  StageSlide(q, batch);
  return CommitNextSlide();
}

void SurveillancePipeline::RunStaging(StagedSlide* slide) {
  // --- online tracking: fresh positions -> trajectory events ---------------
  // Sharded by MMSI; tuples are routed into per-shard lock-free ring
  // inboxes, then each shard tracks, gap-detects, and compresses its
  // vessels concurrently (tracker lane) and the outputs merge in stream
  // order. The spatial facts each critical point will feed the recognizer
  // are precomputed here too: AreasCloseToAll is pure and exact, so moving
  // it off the commit path changes no output.
  const double t0 = NowSeconds();
  slide->criticals = tracker_.ProcessSlide(
      std::span<const stream::PositionTuple>(slide->batch), slide->q,
      &slide->shard_stats);
  slide->tracking_seconds = NowSeconds() - t0;
  slide->staged_feed = recognizer_->Stage(
      std::span<const tracker::CriticalPoint>(slide->criticals));
  // Notify under the lock: once `ready` is visible, CommitNextSlide may
  // destroy the slide, its condition variable included, so the notify must
  // finish before the waiter can reacquire `mu`.
  std::lock_guard<std::mutex> lock(slide->mu);
  slide->ready = true;
  slide->cv.notify_all();
}

void SurveillancePipeline::WaitStaged(StagedSlide* slide) {
  std::unique_lock<std::mutex> lock(slide->mu);
  slide->cv.wait(lock, [slide]() MARITIME_REQUIRES(slide->mu) {
    return slide->ready;
  });
}

void SurveillancePipeline::StageSlide(
    Timestamp q, std::span<const stream::PositionTuple> batch) {
  auto slide = std::make_unique<StagedSlide>();
  slide->q = q;
  slide->batch.assign(batch.begin(), batch.end());
  StagedSlide* raw = slide.get();
  // The tracker is stateful and its ring inboxes are single-producer, so
  // staging tasks never overlap each other — only the commit phase of
  // *earlier* slides, which touches the recognizer and archiver instead.
  if (!staged_.empty()) WaitStaged(staged_.back().get());
  staged_.push_back(std::move(slide));
  if (config_.pipeline_depth > 1 && pool_->worker_count() > 0) {
    pool_->Submit(common::Lane::kTracker, [this, raw] { RunStaging(raw); });
  } else {
    RunStaging(raw);
  }
}

SlideReport SurveillancePipeline::CommitNextSlide() {
  MARITIME_DCHECK(!staged_.empty());
  std::unique_ptr<StagedSlide> slide = std::move(staged_.front());
  staged_.pop_front();
  WaitStaged(slide.get());

  SlideReport report;
  report.query_time = slide->q;
  report.raw_positions = slide->batch.size();
  report.tracking_seconds = slide->tracking_seconds;
  report.shard_stats = std::move(slide->shard_stats);
  report.critical_points = slide->criticals.size();

  // --- commit barrier: every shared-state mutation, in slide order ----------
  recognizer_->Feed(std::move(slide->staged_feed));
  for (const auto& cp : slide->criticals) {
    window_criticals_.push_back(cp);
    all_criticals_.push_back(cp);
  }

  const double t1 = NowSeconds();
  report.recognition = recognizer_->Recognize(slide->q);
  report.recognition_seconds = NowSeconds() - t1;
  last_query_ = slide->q;

  // --- offline archival of evicted ("delta") critical points ----------------
  ArchiveEvicted(slide->q);
  return report;
}

void SurveillancePipeline::DrainStagedSlides(
    const std::function<void(const SlideReport&)>& on_slide) {
  while (!staged_.empty()) {
    const SlideReport report = CommitNextSlide();
    if (on_slide) on_slide(report);
  }
}

void SurveillancePipeline::ArchiveEvicted(Timestamp q) {
  if (archiver_ == nullptr) return;
  const Timestamp cutoff = q - config_.window.range;
  std::vector<tracker::CriticalPoint> evicted;
  while (!window_criticals_.empty() &&
         window_criticals_.front().tau <= cutoff) {
    evicted.push_back(window_criticals_.front());
    window_criticals_.pop_front();
  }
  if (!evicted.empty()) archiver_->ArchiveBatch(evicted);
}

void SurveillancePipeline::DriveLoop(
    stream::StreamReplayer& replayer, stream::QueryTimeSequence& queries,
    Timestamp last, const std::function<void(const SlideReport&)>& on_slide) {
  // Pipelined replay: stage the new slide first, then commit once the
  // pipeline holds `depth` slides — with depth 2 the caller recognizes
  // slide k while the pool tracks slide k+1. Depth 1 degenerates to
  // stage-then-commit, i.e. strict serial execution.
  const size_t depth =
      static_cast<size_t>(std::max(1, config_.pipeline_depth));
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    StageSlide(q, batch);
    while (staged_.size() >= depth) {
      const SlideReport report = CommitNextSlide();
      if (on_slide) on_slide(report);
    }
    if (q >= last) break;
  }
  DrainStagedSlides(on_slide);
  const SlideReport flush = Finish();
  if (on_slide && !flush.recognition.empty()) on_slide(flush);
}

void SurveillancePipeline::Run(
    stream::StreamReplayer& replayer,
    const std::function<void(const SlideReport&)>& on_slide) {
  const Timestamp origin = replayer.first_timestamp();
  if (origin == kInvalidTimestamp) return;
  stream::QueryTimeSequence queries(config_.window, origin);
  DriveLoop(replayer, queries, replayer.last_timestamp(), on_slide);
}

SlideReport SurveillancePipeline::Finish() {
  // Slides staged ahead must land before the tail flush; their reports are
  // observable through DrainStagedSlides, which replay drivers call first —
  // a direct Finish still commits them (state effects included) so nothing
  // is lost, only the intermediate reports go unobserved.
  DrainStagedSlides();
  SlideReport report;
  report.final_flush = true;

  const double t0 = NowSeconds();
  std::vector<tracker::CriticalPoint> tail;
  tracker_.Finish(&tail);
  report.tracking_seconds = NowSeconds() - t0;
  report.critical_points = tail.size();
  for (const auto& cp : tail) {
    all_criticals_.push_back(cp);
    window_criticals_.push_back(cp);
  }

  if (!tail.empty()) {
    // The tail events (episode closings, last anchors) arrived after the
    // final query time; treat them as delayed input amalgamated at the next
    // query time Q_{i+1}, per the paper's windowing semantics. Without this
    // recognition pass, complex events completing in the last partial
    // window were silently dropped.
    recognizer_->Feed(std::span<const tracker::CriticalPoint>(tail));
    Timestamp tail_end = tail.front().tau;
    for (const auto& cp : tail) tail_end = std::max(tail_end, cp.tau);
    const Timestamp q_final = last_query_ == kInvalidTimestamp
                                  ? tail_end
                                  : last_query_ + config_.window.slide;
    report.query_time = q_final;
    const double t1 = NowSeconds();
    report.recognition = recognizer_->Recognize(q_final);
    report.recognition_seconds = NowSeconds() - t1;
    last_query_ = q_final;
  }

  if (archiver_ != nullptr) {
    std::vector<tracker::CriticalPoint> rest(window_criticals_.begin(),
                                             window_criticals_.end());
    window_criticals_.clear();
    if (!rest.empty()) archiver_->ArchiveBatch(rest);
  }
  return report;
}

std::vector<tracker::CriticalPoint> SurveillancePipeline::TakeCriticalPoints() {
  std::vector<tracker::CriticalPoint> out = std::move(all_criticals_);
  all_criticals_.clear();
  return out;
}

}  // namespace maritime::surveillance
