#include "worker.h"

#include "common/backoff.h"
#include "common/fault.h"
#include "common/logging.h"
#include "dpp/fleet.h"
#include "dwrf/reader.h"
#include "transforms/dedup.h"

namespace dsi::dpp {

Worker::Worker(FleetScheduler &control,
               const warehouse::Warehouse &warehouse,
               WorkerOptions options)
    : control_(control), warehouse_(warehouse), options_(options),
      stripe_pool_(options.stripe_pool_max_idle,
                   options.stripe_pool_retained_bytes,
                   [](const dwrf::RowBatch &b) {
                       return static_cast<size_t>(b.heapBytes());
                   })
{
    id_ = control_.registerWorker();
    // The transform program (the "serialized and compiled PyTorch
    // module") is pulled lazily per tenant on the first grant from
    // that tenant — a fleet worker cannot know up front which
    // sessions it will serve. See programFor().
}

const transforms::TransformGraph &
Worker::programFor(TenantId tenant)
{
    {
        std::scoped_lock lock(program_mutex_);
        auto it = programs_.find(tenant);
        if (it != programs_.end())
            return it->second;
    }
    // Deserialize outside the lock (a compile-heavy tenant must not
    // stall siblings already cached). Two threads racing on the same
    // tenant both deserialize; try_emplace keeps exactly one copy.
    auto graph = transforms::TransformGraph::deserialize(
        control_.tenantProgram(tenant));
    dsi_assert(graph.has_value(),
               "worker %u received malformed transform program "
               "for tenant %u",
               id_, tenant);
    std::scoped_lock lock(program_mutex_);
    auto [it, inserted] =
        programs_.try_emplace(tenant, std::move(*graph));
    (void)inserted;
    return it->second;
}

Worker::~Worker()
{
    stop();
}

uint32_t
Worker::extractThreadCount() const
{
    if (!parallel())
        return 0;
    return options_.num_extract_threads > 0
               ? options_.num_extract_threads
               : 1;
}

uint32_t
Worker::transformThreadCount() const
{
    if (!parallel())
        return 0;
    return options_.num_transform_threads > 0
               ? options_.num_transform_threads
               : 1;
}

void
Worker::start()
{
    dsi_assert(parallel(),
               "worker %u: start() requires num_extract_threads or "
               "num_transform_threads > 0",
               id_);
    dsi_assert(!pool_, "worker %u already started", id_);
    uint32_t extracters = extractThreadCount();
    uint32_t transformers = transformThreadCount();
    stripe_queue_ = std::make_unique<BoundedQueue<ExtractedStripe>>(
        options_.stripe_queue_capacity);
    active_extractors_ = extracters;
    active_transformers_ = transformers;
    metrics_.set("worker.extract_threads", extracters);
    metrics_.set("worker.transform_threads", transformers);
    pool_ = std::make_unique<ThreadPool>(extracters + transformers);
    for (uint32_t i = 0; i < extracters; ++i)
        pool_->submit([this] { extractLoop(); });
    for (uint32_t i = 0; i < transformers; ++i)
        pool_->submit([this] { transformLoop(); });
}

void
Worker::stop()
{
    if (!pool_)
        return;
    {
        std::scoped_lock lock(buffer_mutex_);
        stop_requested_ = true;
    }
    space_available_.notify_all();
    stripe_queue_->close();
    pool_.reset(); // joins every pipeline thread
}

// ---------------------------------------------------------------------
// Shared extract/transform stages.

namespace {

/**
 * Synthesize an injected (beta) feature column for a stripe. Values
 * are a pure function of (feature id, absolute row) so every worker
 * — and every retry — joins identical data, as a feature-store
 * lookup would.
 */
void
injectFeature(dwrf::RowBatch &batch, const warehouse::FeatureSpec &f,
              RowId first_row)
{
    auto unit = [&](uint64_t row, uint64_t salt) {
        uint64_t h = transforms::sigridHash64(first_row + row,
                                              f.id * 1315423911u + salt);
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    };
    if (f.kind == warehouse::FeatureKind::Dense) {
        dwrf::DenseColumn col;
        col.id = f.id;
        col.present.assign((batch.rows + 7) / 8, 0);
        col.values.assign(batch.rows, 0.0f);
        for (uint32_t r = 0; r < batch.rows; ++r) {
            if (unit(r, 0) < f.coverage) {
                col.setPresent(r);
                col.values[r] = static_cast<float>(unit(r, 1));
            }
        }
        batch.dense.push_back(std::move(col));
        return;
    }
    dwrf::SparseColumn col;
    col.id = f.id;
    col.offsets.assign(batch.rows + 1, 0);
    for (uint32_t r = 0; r < batch.rows; ++r) {
        col.offsets[r + 1] = col.offsets[r];
        if (unit(r, 0) >= f.coverage)
            continue;
        uint32_t len = 1 + static_cast<uint32_t>(
                               unit(r, 2) * 2.0 * f.avg_length);
        for (uint32_t k = 0; k < len; ++k) {
            col.values.push_back(static_cast<int64_t>(
                transforms::sigridHash64(first_row + r, k) %
                f.cardinality));
        }
        col.offsets[r + 1] += len;
    }
    if (f.kind == warehouse::FeatureKind::ScoredSparse) {
        col.scores.resize(col.values.size());
        for (size_t i = 0; i < col.scores.size(); ++i)
            col.scores[i] = static_cast<float>(
                (transforms::sigridHash64(i, f.id) >> 40) / 16777216.0);
    }
    batch.sparse.push_back(std::move(col));
}

} // namespace

dwrf::ReadStatus
Worker::extractStripe(HeldSplit &held, uint32_t stripe_index,
                      dwrf::RowBatch &out) const
{
    dwrf::ReadStatus status = held.reader->readStripe(stripe_index, out);
    if (status != dwrf::ReadStatus::Ok)
        return status;
    held.metrics.inc("worker.rows_extracted", out.rows);

    // --- Inject beta features (dynamic join, Section IV-C) ---
    const SessionSpec &spec = control_.tenantSpec(held.tenant);
    RowId first_row = held.reader->footer().stripes[stripe_index].first_row;
    for (const auto &f : spec.injected) {
        injectFeature(out, f, first_row);
        held.metrics.inc("worker.features_injected");
    }
    return status;
}

void
Worker::transformStripe(ExtractedStripe &work, GraphCache &graphs)
{
    auto &graph = graphs[work.tenant];
    if (!graph) {
        graph = std::make_unique<transforms::CompiledGraph>(
            programFor(work.tenant));
    }
    const SessionSpec &spec = control_.tenantSpec(work.tenant);
    const SplitKey key{work.tenant, work.split_id};
    const dwrf::RowBatch &stripe = *work.rows;
    transforms::TransformStats stats;
    Metrics metrics;
    bool whole = true;
    {
        // One transform span covers the whole stripe; buffer waits
        // inside it get their own Complete spans so stall attribution
        // can credit them to the delivery stage instead of transform
        // compute.
        trace::Span span(trace::spans::kTransformStripe, work.trace,
                         work.split_id, work.first_row);
        // Batch dedup is gated on the graph being row-local (every
        // Table XI op except Sampling): only then is transform-once-
        // per-unique-row byte-identical to transforming the full batch.
        const bool dedup_row_local =
            options_.dedup_enabled && transforms::rowLocal(*graph);
        // Transform + partial load, one mini-batch at a time
        // (transforms are localized to each mini-batch).
        for (uint32_t start = 0; start < stripe.rows;
             start += spec.batch_size) {
            if (stop_requested_ || crashed_) {
                whole = false;
                break;
            }
            dwrf::RowBatch batch =
                dwrf::sliceBatch(stripe, start, spec.batch_size);
            if (options_.dedup_enabled && !dedup_row_local)
                metrics.inc("worker.dedup_bypassed_batches");
            if (dedup_row_local) {
                trace::Span dspan(trace::spans::kWorkerDedup, span.id(),
                                  work.split_id, batch.rows);
                transforms::BatchDedupPlan plan =
                    transforms::planBatchDedup(batch);
                metrics.inc("worker.dedup_rows_in",
                            static_cast<double>(batch.rows));
                metrics.inc(
                    "worker.dedup_rows_unique",
                    static_cast<double>(plan.unique_rows.size()));
                if (plan.collapsed()) {
                    metrics.inc("worker.dedup_batches_collapsed");
                    // Transform the unique rows only; expansion
                    // restores every duplicate row with its own label.
                    std::vector<float> labels = std::move(batch.labels);
                    dwrf::RowBatch unique =
                        transforms::gatherRows(batch, plan.unique_rows);
                    stats.merge(graph->apply(unique));
                    batch = labels.empty()
                        ? transforms::gatherRows(unique, plan.inverse)
                        : transforms::expandBatch(unique, plan, labels);
                } else {
                    stats.merge(graph->apply(batch));
                }
            } else {
                stats.merge(graph->apply(batch));
            }

            TensorBatch tensor;
            tensor.bytes = batch.payloadBytes();
            tensor.data = std::move(batch);
            tensor.tenant = work.tenant;
            tensor.split_id = work.split_id;
            tensor.first_row = work.first_row + start;
            tensor.stripe = work.stripe;
            tensor.last_in_stripe = start + spec.batch_size >= stripe.rows;
            tensor.epoch = work.epoch;
            tensor.trace = span.id();
            metrics.inc("worker.tensor_bytes",
                        static_cast<double>(tensor.bytes));
            metrics.inc("worker.tensors");
            // Count the tensor against the split *before* it becomes
            // visible in the buffer, so a concurrent pop can never
            // observe a delivery the tracker has not heard of.
            noteTensorEnqueued(key, work.epoch);
            if (!pushTensor(std::move(tensor), span.id())) {
                // Stopped/crashed while waiting for buffer space; the
                // tensor never entered the buffer.
                noteTensorUnqueued(key, work.epoch);
                whole = false;
                break;
            }
        }
    }
    // The stripe's columns are no longer needed (mini-batches own
    // copies); recycle the batch so the next extract reuses its heap
    // capacity.
    stripe_pool_.release(std::move(work.rows));
    // Fold before the stripe counts toward its split, so the totals
    // land no later than the split's terminal state.
    {
        std::scoped_lock lock(stats_mutex_);
        transform_stats_.merge(stats);
    }
    metrics_.merge(metrics);
    if (whole)
        noteStripeTransformed(key, work.epoch);
}

// ---------------------------------------------------------------------
// The split lifecycle (both modes).

Worker::Acquired
Worker::acquire(std::optional<HeldSplit> &held)
{
    WorkerLoad load;
    load.buffered_tensors = buffered();
    load.buffer_full = bufferFull();
    SplitGrant grant = control_.acquireSplit(id_, load);
    switch (grant.status) {
    case GrantStatus::Granted:
        break;
    case GrantStatus::Overloaded:
        metrics_.inc("worker.requests_shed");
        return Acquired::Retry;
    case GrantStatus::Standby:
        // The source has tenants coming or splits in flight elsewhere,
        // just nothing for us *now*. Stay alive and re-poll — this is
        // not overload, so no shed count.
        metrics_.inc("worker.standby_polls");
        return Acquired::Retry;
    default:
        return Acquired::NoWork; // NoWork (idle out) or Rejected (zombie)
    }
    held.emplace();
    held->split = *grant.split;
    held->tenant = grant.tenant;
    held->deadline = grant.deadline;
    held->trace = grant.trace;
    return Acquired::Split;
}

Worker::SplitEnd
Worker::open(HeldSplit &held)
{
    const Split &split = held.split;
    // A resumed grant skips stripes already delivered to trainers in
    // a previous attempt; this attempt owes only the tail.
    held.next_stripe = split.resume_stripe;
    if (split.resume_stripe > 0)
        held.metrics.inc("worker.splits_resumed");
    held.epoch = beginSplit(held.key(),
                            split.stripe_count - split.resume_stripe);
    held.source = warehouse_.cluster().open(split.file);
    const SessionSpec &spec = control_.tenantSpec(held.tenant);
    dwrf::ReadOptions read = spec.read;
    read.projection = spec.projection;
    read.verify_checksums = options_.verify_checksums;
    // The open reads (file tail + footer) happen outside any stripe
    // span; parent them on the grant so they keep lineage.
    trace::ScopedParent open_ambient(held.trace);
    held.reader = std::make_unique<dwrf::FileReader>(*held.source, read);
    if (!held.reader->valid()) {
        dsi_warn("worker %u: unreadable file '%s'", id_,
                 split.file.c_str());
        return SplitEnd::Abandoned;
    }
    held.reader->setDeadline(held.deadline);
    return SplitEnd::Producing;
}

Worker::SplitEnd
Worker::extractNext(HeldSplit &held, ExtractedStripe &out)
{
    // Also covers a fully-delivered resume (every stripe reached
    // trainers before the previous attempt died): nothing to read.
    if (held.exhausted())
        return SplitEnd::Finished;
    if (stop_requested_ || crashed_)
        return SplitEnd::Aborted;
    // Per-stripe crash point, checked while a split is held, so an
    // injected crash always leaves an in-flight split for lease
    // recovery to replay.
    if (faultPoint(faults::kWorkerCrash)) {
        crash();
        return SplitEnd::Aborted;
    }
    if (handback_) {
        // Preempted: a higher-priority tenant needs this worker's
        // capacity. Hand the split back at the stripe boundary
        // (requeued, no attempt penalty).
        held.metrics.inc("worker.splits_preempted");
        return SplitEnd::Released;
    }
    control_.heartbeat(id_); // per-stripe lease renewal
    if (held.deadline.expired()) {
        held.metrics.inc("worker.deadline_expired");
        return SplitEnd::Released;
    }
    uint32_t stripe_index = held.split.first_stripe + held.next_stripe;
    auto rows = stripe_pool_.acquire();
    dwrf::ReadStatus status;
    {
        // The extract span closes before any terminal control-plane
        // call or queue push, keeping per-thread span nesting strictly
        // LIFO (the Chrome exporter relies on it).
        trace::Span espan(trace::spans::kExtractStripe, held.trace,
                          held.split.id, stripe_index);
        trace::ScopedParent ambient(espan.id());
        status = extractStripe(held, stripe_index, *rows);
    }
    if (status == dwrf::ReadStatus::DeadlineExpired) {
        // The read budget ran out: nothing is wrong with the data. A
        // fresh grant (elsewhere, with a fresh budget) can finish it.
        stripe_pool_.release(std::move(rows));
        held.metrics.inc("worker.deadline_expired");
        return SplitEnd::Released;
    }
    if (status != dwrf::ReadStatus::Ok) {
        // Reader-level retries (replica rotation) already ran; this
        // stripe is unreadable from here. The Master retries the
        // split elsewhere or fails it.
        stripe_pool_.release(std::move(rows));
        held.metrics.inc("worker.stripe_read_failures");
        return SplitEnd::Abandoned;
    }
    out.rows = std::move(rows);
    out.tenant = held.tenant;
    out.split_id = held.split.id;
    out.first_row = held.reader->footer().stripes[stripe_index].first_row;
    out.stripe = held.next_stripe++;
    out.epoch = held.epoch;
    out.trace = held.trace;
    return SplitEnd::Producing;
}

void
Worker::close(HeldSplit &held, SplitEnd end)
{
    if (held.reader)
        mergeReadStats(held.reader->stats());
    metrics_.merge(held.metrics);
    switch (end) {
    case SplitEnd::Finished:
        // Completion is delivery-gated: the Master hears completeSplit
        // once the last buffered tensor of this split is popped.
        finishExtraction(held.key(), held.epoch);
        break;
    case SplitEnd::Released:
        returnSplit(held.key());
        break;
    case SplitEnd::Abandoned:
        abandonSplit(held.key());
        break;
    default:
        break; // Aborted: in flight until the Master requeues it
    }
}

// ---------------------------------------------------------------------
// Parallel pipeline.

void
Worker::extractLoop()
{
    // Shed-retry pacing: decorrelated jitter with a tight cap keeps a
    // shed worker responsive without hammering the control plane in
    // lockstep with its sibling threads.
    Backoff shed_backoff(
        BackoffOptions{.base_us = 200, .cap_us = 2000},
        0xb0ffULL + id_);
    while (!stop_requested_ && !crashed_ && !draining_) {
        std::optional<HeldSplit> held;
        Acquired got = acquire(held);
        if (got == Acquired::NoWork)
            break;
        if (got == Acquired::Retry) {
            shed_backoff.sleep(Deadline::unbounded());
            continue;
        }
        shed_backoff.reset();
        SplitEnd end = open(*held);
        ExtractedStripe work;
        while (end == SplitEnd::Producing &&
               (end = extractNext(*held, work)) == SplitEnd::Producing) {
            // Backpressure observes the split budget: a stalled
            // transform stage must not pin an expired split forever.
            uint32_t stripe_index = held->split.first_stripe + work.stripe;
            trace::Timer wait;
            if (stripe_queue_->push(std::move(work), held->deadline)) {
                wait.complete(trace::spans::kQueuePushWait, held->trace,
                              held->split.id, stripe_index);
            } else if (stripe_queue_->closed()) {
                end = SplitEnd::Aborted; // shutting down
            } else {
                held->metrics.inc("worker.deadline_expired");
                end = SplitEnd::Released;
            }
        }
        close(*held, end);
        if (end == SplitEnd::Aborted)
            break; // the split stays in flight; the Master requeues it
    }
    // Last extractor out ends the stripe stream so transformers can
    // drain and quiesce.
    if (active_extractors_.fetch_sub(1) == 1)
        stripe_queue_->close();
}

void
Worker::transformLoop()
{
    GraphCache graphs;
    while (auto work = stripe_queue_->pop()) {
        if (crashed_)
            break;
        transformStripe(*work, graphs);
        if (stop_requested_ || crashed_)
            break;
    }
    publishPoolMetrics();
    // Last transformer out marks production finished: drained() can
    // only become true after every pipeline thread has quiesced.
    if (active_transformers_.fetch_sub(1) == 1) {
        std::scoped_lock lock(buffer_mutex_);
        no_more_work_ = true;
    }
}

// ---------------------------------------------------------------------
// Synchronous (pump) mode.

bool
Worker::pump()
{
    dsi_assert(!pool_, "worker %u: pump() cannot drive a started "
                       "parallel pipeline",
               id_);
    if (crashed_)
        return false;
    // Per-pump lease renewal: backpressured and idle calls read no
    // stripe, so extractNext's per-stripe heartbeat does not cover them.
    control_.heartbeat(id_);
    {
        std::scoped_lock lock(buffer_mutex_);
        if (no_more_work_)
            return false;
        if (bufferFullLocked())
            return true; // backpressure: trainers are behind
    }
    SplitEnd end = SplitEnd::Producing;
    if (!pump_split_) {
        Acquired got =
            draining_ ? Acquired::NoWork : acquire(pump_split_);
        if (got == Acquired::Retry)
            return true; // shed or standby: ask again next pump
        if (got == Acquired::NoWork) {
            std::scoped_lock lock(buffer_mutex_);
            no_more_work_ = true;
            return false;
        }
        end = open(*pump_split_);
    }
    if (end == SplitEnd::Producing) {
        ExtractedStripe work;
        end = extractNext(*pump_split_, work);
        if (end == SplitEnd::Producing) {
            transformStripe(work, pump_graphs_);
            if (!pump_split_->exhausted())
                return true;
            end = SplitEnd::Finished;
        }
    }
    close(*pump_split_, end);
    pump_split_.reset();
    return end != SplitEnd::Aborted;
}

void
Worker::beginDrain(bool release_held)
{
    if (release_held)
        handback_ = true;
    if (!draining_.exchange(true))
        metrics_.inc("worker.drains_begun");
}

WorkerReport
Worker::report() const
{
    WorkerReport r;
    r.buffered_tensors = buffered();
    return r;
}

// ---------------------------------------------------------------------
// Tensor buffer (shared by both modes).

bool
Worker::bufferFullLocked() const
{
    if (buffer_.size() >= options_.buffer_capacity)
        return true;
    return options_.buffer_bytes_capacity > 0 &&
           buffered_bytes_ >= options_.buffer_bytes_capacity;
}

bool
Worker::bufferFull() const
{
    std::scoped_lock lock(buffer_mutex_);
    return bufferFullLocked();
}

size_t
Worker::buffered() const
{
    std::scoped_lock lock(buffer_mutex_);
    return buffer_.size();
}

Bytes
Worker::bufferedBytes() const
{
    std::scoped_lock lock(buffer_mutex_);
    return buffered_bytes_;
}

bool
Worker::pushTensor(TensorBatch tensor, trace::SpanId parent)
{
    // Pipeline threads wait for room; the pump thread must not (its
    // own caller pops), so its buffer may overshoot the caps by one
    // stripe's tensors. stripe_queue_ exists exactly once start() ran.
    const bool wait_for_room = stripe_queue_ != nullptr;
    const uint64_t split_id = tensor.split_id;
    trace::Timer wait;
    {
        std::unique_lock lock(buffer_mutex_);
        if (wait_for_room) {
            space_available_.wait(lock, [this] {
                return stop_requested_ || crashed_ || !bufferFullLocked();
            });
        }
        if (stop_requested_ || crashed_)
            return false;
        buffered_bytes_ += tensor.bytes;
        buffer_.push_back(std::move(tensor));
    }
    if (wait_for_room)
        wait.complete(trace::spans::kBufferWait, parent, split_id);
    return true;
}

bool
Worker::drained() const
{
    if (crashed_) {
        // A crashed worker is "drained" once nothing depends on it:
        // its progress trackers empty exactly when every split it
        // touched completed or was handed back to the Master. A
        // non-empty tracker means an in-flight split, whose lease
        // expiry will trigger replacement — the session never waits
        // on a crashed worker that still owes work.
        std::scoped_lock lock(progress_mutex_);
        return split_progress_.empty();
    }
    std::scoped_lock lock(buffer_mutex_);
    return no_more_work_ && buffer_.empty();
}

std::optional<TensorBatch>
Worker::popTensor()
{
    // A crashed worker is unreachable: its buffered tensors are lost
    // with the process. Because completion is delivery-gated, those
    // splits stay in flight and the Master replays them elsewhere.
    if (crashed_)
        return std::nullopt;
    std::unique_lock lock(buffer_mutex_);
    if (buffer_.empty()) {
        lock.unlock();
        // Answering an (empty) RPC is still proof of life.
        control_.heartbeat(id_);
        return std::nullopt;
    }
    TensorBatch t = std::move(buffer_.front());
    buffer_.pop_front();
    buffered_bytes_ -= t.bytes;
    lock.unlock();
    space_available_.notify_one();
    metrics_.inc("worker.tensors_served");
    control_.heartbeat(id_);
    noteTensorDelivered({t.tenant, t.split_id}, t.epoch);
    return t;
}

void
Worker::mergeReadStats(const dwrf::ReadStats &rs)
{
    std::scoped_lock lock(stats_mutex_);
    read_stats_.merge(rs);
    if (rs.dict_streams != 0) {
        metrics_.inc("dwrf.dict_streams",
                     static_cast<double>(rs.dict_streams));
    }
    if (rs.dict_list_refs != 0) {
        metrics_.inc("dwrf.dict_list_refs",
                     static_cast<double>(rs.dict_list_refs));
    }
    if (rs.dict_lists_inline != 0) {
        metrics_.inc("dwrf.dict_lists_inline",
                     static_cast<double>(rs.dict_lists_inline));
    }
}

// ---------------------------------------------------------------------
// Delivery-gated split completion.

uint64_t
Worker::beginSplit(SplitKey key, uint32_t stripes_total)
{
    std::scoped_lock lock(progress_mutex_);
    uint64_t epoch = next_epoch_++;
    SplitProgress p;
    p.stripes_total = stripes_total;
    p.epoch = epoch;
    split_progress_[key] = p;
    return epoch;
}

void
Worker::noteTensorEnqueued(SplitKey key, uint64_t epoch)
{
    std::scoped_lock lock(progress_mutex_);
    auto it = split_progress_.find(key);
    if (it != split_progress_.end() && it->second.epoch == epoch)
        ++it->second.tensors_buffered;
}

void
Worker::noteTensorUnqueued(SplitKey key, uint64_t epoch)
{
    std::scoped_lock lock(progress_mutex_);
    auto it = split_progress_.find(key);
    if (it != split_progress_.end() && it->second.epoch == epoch &&
        it->second.tensors_buffered > 0) {
        --it->second.tensors_buffered;
    }
}

void
Worker::noteTensorDelivered(SplitKey key, uint64_t epoch)
{
    {
        std::scoped_lock lock(progress_mutex_);
        auto it = split_progress_.find(key);
        // Epoch mismatch: a leftover tensor of an earlier, abandoned
        // attempt — it must not touch the current attempt's counts.
        if (it == split_progress_.end() || it->second.epoch != epoch)
            return;
        if (it->second.tensors_buffered > 0)
            --it->second.tensors_buffered;
    }
    maybeCompleteSplit(key);
}

void
Worker::noteStripeTransformed(SplitKey key, uint64_t epoch)
{
    {
        std::scoped_lock lock(progress_mutex_);
        auto it = split_progress_.find(key);
        if (it == split_progress_.end() || it->second.epoch != epoch)
            return;
        ++it->second.stripes_transformed;
    }
    maybeCompleteSplit(key);
}

void
Worker::finishExtraction(SplitKey key, uint64_t epoch)
{
    {
        std::scoped_lock lock(progress_mutex_);
        auto it = split_progress_.find(key);
        if (it == split_progress_.end() || it->second.epoch != epoch)
            return;
        it->second.extraction_done = true;
    }
    maybeCompleteSplit(key);
}

void
Worker::maybeCompleteSplit(SplitKey key)
{
    bool complete = false;
    {
        std::scoped_lock lock(progress_mutex_);
        auto it = split_progress_.find(key);
        if (it != split_progress_.end() && it->second.extraction_done &&
            it->second.stripes_transformed ==
                it->second.stripes_total &&
            it->second.tensors_buffered == 0) {
            split_progress_.erase(it);
            complete = true;
        }
    }
    // Control-plane call happens outside every lock (lock-order
    // hygiene: the fleet takes its own mutex, then a Master's).
    if (complete) {
        control_.completeSplit(id_, key.first, key.second);
        metrics_.inc("worker.splits_completed");
        publishPoolMetrics();
    }
}

void
Worker::publishPoolMetrics()
{
    metrics_.set("worker.stripe_pool_allocated",
                 static_cast<double>(stripe_pool_.allocated()));
    metrics_.set("worker.stripe_pool_reused",
                 static_cast<double>(stripe_pool_.reused()));
    metrics_.set("worker.stripe_pool_retained_bytes",
                 static_cast<double>(stripe_pool_.retainedBytes()));
}

void
Worker::abandonSplit(SplitKey key)
{
    {
        std::scoped_lock lock(progress_mutex_);
        split_progress_.erase(key);
    }
    control_.failSplit(id_, key.first, key.second);
    metrics_.inc("worker.splits_abandoned");
    // Pool gauges must reflect terminal states too, not just clean
    // completions — otherwise a crashy run reports stale reuse
    // numbers until the next report interval.
    publishPoolMetrics();
}

void
Worker::returnSplit(SplitKey key)
{
    // Same cleanup as abandonSplit, but the control plane requeues
    // with no attempt penalty: leftover tensors of this attempt are
    // filtered by epoch here and deduplicated by the client ledger.
    {
        std::scoped_lock lock(progress_mutex_);
        split_progress_.erase(key);
    }
    control_.releaseSplit(id_, key.first, key.second);
    metrics_.inc("worker.splits_released");
    publishPoolMetrics();
}

void
Worker::crash()
{
    {
        std::scoped_lock lock(buffer_mutex_);
        crashed_ = true;
    }
    space_available_.notify_all();
    if (stripe_queue_)
        stripe_queue_->close();
    metrics_.inc("worker.crashes");
    publishPoolMetrics();
    trace::instant(trace::events::kFaultWorkerCrash, trace::kNoSpan,
                   id_);
    dsi_warn("worker %u: injected crash", id_);
}

} // namespace dsi::dpp
