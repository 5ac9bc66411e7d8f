#include "maritime/pipeline.h"

#include <algorithm>
#include <chrono>

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
  rc.engine = config_.recognition_engine;
  recognizer_ = std::make_unique<PartitionedRecognizer>(
      *kb_, rc, config_.partitions, pool_);
  if (config_.archive) {
    archiver_ = std::make_unique<mod::HermesArchiver>(kb_);
  }
}

SlideReport SurveillancePipeline::RunSlide(
    Timestamp q, std::span<const stream::PositionTuple> batch) {
  SlideReport report;
  report.query_time = q;
  report.raw_positions = batch.size();

  // --- online tracking: fresh positions -> trajectory events ---------------
  // Sharded by MMSI: the batch is scattered into per-shard inboxes on this
  // thread, then each shard tracks, gap-detects, and compresses its vessels
  // concurrently on the pool and the outputs merge in stream order.
  const double t0 = NowSeconds();
  report.critical_points = tracker_.ProcessSlide(batch, q, &report.shard_stats);
  report.tracking_seconds = NowSeconds() - t0;
  const std::vector<tracker::CriticalPoint>& criticals = report.critical_points;

  recognizer_->Feed(std::span<const tracker::CriticalPoint>(criticals));
  // Held for the archiver, the only reader of the window's points.
  if (archiver_ != nullptr) {
    window_criticals_.insert(window_criticals_.end(), criticals.begin(),
                             criticals.end());
  }

  const double t1 = NowSeconds();
  report.recognition = recognizer_->Recognize(q);
  report.recognition_seconds = NowSeconds() - t1;
  last_query_ = q;

  // --- offline archival of evicted ("delta") critical points ----------------
  ArchiveEvicted(q);
  return report;
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
  while (true) {
    const Timestamp q = queries.Fire();
    const SlideReport report = RunSlide(q, replayer.NextBatch(q));
    if (on_slide) on_slide(report);
    if (q >= last) break;
  }
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
  SlideReport report;
  report.final_flush = true;

  const double t0 = NowSeconds();
  std::vector<tracker::CriticalPoint>& tail = report.critical_points;
  tracker_.Finish(&tail);
  report.tracking_seconds = NowSeconds() - t0;

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
    rest.insert(rest.end(), tail.begin(), tail.end());
    window_criticals_.clear();
    if (!rest.empty()) archiver_->ArchiveBatch(rest);
  }
  return report;
}

}  // namespace maritime::surveillance
