#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace ironman::common {

ThreadPool::ThreadPool(int threads)
{
    resize(threads);
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &w : workers)
        w.join();
    workers.clear();
    stopping = false;
}

void
ThreadPool::resize(int threads)
{
    int want = std::max(threads, 1) - 1; // workers beside the caller
    if (want == int(workers.size()))
        return;
    stopWorkers();
    workers.reserve(want);
    // Capture the current generation at spawn time: a worker must
    // neither replay the job that ran before the resize (its ctx
    // frame is gone) nor read jobGen so late that it misses the next
    // one. resize() never races run(), so jobGen is stable here.
    for (int id = 1; id <= want; ++id)
        workers.emplace_back(
            [this, id, gen = jobGen] { workerMain(id, gen); });
}

void
ThreadPool::run(size_t count, RangeFn fn, void *ctx)
{
    if (count == 0)
        return;
    const int n = threads();
    if (n == 1 || count == 1) {
        fn(ctx, 0, 0, count);
        return;
    }

    const size_t per = (count + n - 1) / n;
    {
        std::lock_guard<std::mutex> lock(mutex);
        IRONMAN_CHECK(pending == 0, "reentrant ThreadPool::run");
        jobFn = fn;
        jobCtx = ctx;
        jobCount = count;
        jobPer = per;
        pending = workers.size();
        ++jobGen;
    }
    cvStart.notify_all();

    // Worker 0 is the calling thread.
    fn(ctx, 0, 0, std::min(per, count));

    std::unique_lock<std::mutex> lock(mutex);
    cvDone.wait(lock, [this] { return pending == 0; });
}

void
ThreadPool::workerMain(int id, uint64_t seen)
{
    for (;;) {
        RangeFn fn;
        void *ctx;
        size_t count, per;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cvStart.wait(lock,
                         [&] { return stopping || jobGen != seen; });
            if (stopping)
                return;
            seen = jobGen;
            fn = jobFn;
            ctx = jobCtx;
            count = jobCount;
            per = jobPer;
        }

        size_t begin = std::min(count, size_t(id) * per);
        size_t end = std::min(count, begin + per);
        if (begin < end)
            fn(ctx, id, begin, end);

        {
            std::lock_guard<std::mutex> lock(mutex);
            --pending;
        }
        cvDone.notify_all();
    }
}

} // namespace ironman::common
