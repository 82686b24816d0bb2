#include "support/parallel.hpp"

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace chordal::support {

namespace {

int env_default_threads() {
  if (const char* env = std::getenv("CHORDAL_THREADS")) {
    int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int g_thread_override = 0;  // 0 = use environment/hardware default

thread_local bool tl_in_parallel_region = false;

/// Persistent pool. Workers sleep on a condition variable between jobs; a
/// job is published as a generation bump plus the static partition
/// parameters, and each pool thread executes exactly the range of its slot.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void run(std::size_t n, std::size_t workers, const RangeBody& body) {
    // One job at a time: a second caller thread would otherwise overwrite
    // the published job while this one's workers still read it. Nested
    // calls run inline and never get here.
    std::lock_guard<std::mutex> job(job_mu_);
    std::vector<std::exception_ptr> errors(workers);
    {
      std::unique_lock<std::mutex> lock(mu_);
      ensure_threads(workers - 1);
      body_ = &body;
      job_n_ = n;
      job_workers_ = workers;
      errors_ = errors.data();
      remaining_ = workers - 1;
      ++generation_;
      work_cv_.notify_all();
    }
    // The calling thread is worker 0.
    tl_in_parallel_region = true;
    try {
      body(0, n / workers, 0);
    } catch (...) {
      errors[0] = std::current_exception();
    }
    tl_in_parallel_region = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return remaining_ == 0; });
      body_ = nullptr;
      errors_ = nullptr;
    }
    // Deterministic propagation: the lowest worker index wins.
    for (auto& err : errors) {
      if (err) std::rethrow_exception(err);
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      shutdown_ = true;
      work_cv_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

 private:
  void ensure_threads(std::size_t count) {
    while (threads_.size() < count) {
      std::size_t slot = threads_.size();
      threads_.emplace_back([this, slot] { worker_main(slot); });
    }
  }

  void worker_main(std::size_t slot) {
    tl_in_parallel_region = true;
    std::uint64_t seen = 0;
    for (;;) {
      const RangeBody* body = nullptr;
      std::size_t n = 0, workers = 0;
      std::exception_ptr* errors = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        std::size_t w = slot + 1;
        if (w >= job_workers_) continue;  // not part of this job
        body = body_;
        n = job_n_;
        workers = job_workers_;
        errors = errors_;
      }
      std::size_t w = slot + 1;
      try {
        (*body)(n * w / workers, n * (w + 1) / workers, w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--remaining_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex job_mu_;  // held for the whole of run()
  std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  std::vector<std::thread> threads_;
  // Published job (guarded by mu_; read once per generation per worker).
  const RangeBody* body_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_workers_ = 0;
  std::exception_ptr* errors_ = nullptr;
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace

int num_threads() {
  if (g_thread_override >= 1) return g_thread_override;
  static const int from_env = env_default_threads();
  return from_env;
}

void set_num_threads(int count) {
  g_thread_override = count >= 1 ? count : 0;
}

bool in_parallel_region() { return tl_in_parallel_region; }

void parallel_for_ranges(std::size_t n, const RangeBody& body) {
  const auto workers = static_cast<std::size_t>(num_threads());
  if (n == 0) return;
  if (workers <= 1 || tl_in_parallel_region) {
    // Inline: identical to the worker-0 range of a one-worker partition.
    // The region flag must be raised here too, or code keyed on
    // in_parallel_region() would behave differently at one thread than at
    // many (restore rather than clear: this branch also serves nested
    // calls, where the flag is already up).
    bool prev = tl_in_parallel_region;
    tl_in_parallel_region = true;
    try {
      body(0, n, 0);
    } catch (...) {
      tl_in_parallel_region = prev;
      throw;
    }
    tl_in_parallel_region = prev;
    return;
  }
  ThreadPool::instance().run(n, workers, body);
}

}  // namespace chordal::support
