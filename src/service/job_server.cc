#include "service/job_server.h"

#include <algorithm>
#include <optional>

#include "common/wait_graph.h"
#include "runtime/scheduler.h"

namespace dmb::service {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

JobServer::JobServer(engine::Engine* engine, JobServerOptions options)
    : engine_(engine),
      options_(options),
      start_tp_(Clock::now()) {
  const int stage_threads = options_.stage_pool_threads > 0
                                ? options_.stage_pool_threads
                                : 2 * std::max(1, options_.worker_threads);
  stage_pool_ = std::make_unique<ThreadPool>(stage_threads);
  workers_.reserve(static_cast<size_t>(std::max(1, options_.worker_threads)));
  for (int i = 0; i < std::max(1, options_.worker_threads); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  reaper_ = std::thread([this] { ReaperLoop(); });
}

JobServer::~JobServer() { Shutdown(); }

JobServer::Tenant& JobServer::GetTenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, Tenant{}).first;
    it->second.config = options_.default_tenant;
    it->second.budget.set_quota(it->second.config.quota_bytes);
    queue_.SetWeight(name, it->second.config.weight);
  }
  return it->second;
}

void JobServer::ConfigureTenant(const std::string& tenant,
                                TenantConfig config) {
  MutexLock lock(mu_);
  Tenant& t = GetTenant(tenant);
  t.config = config;
  t.budget.set_quota(config.quota_bytes);
  queue_.SetWeight(tenant, config.weight);
}

Result<JobId> JobServer::Submit(JobRequest request) {
  const Clock::time_point t0 = Clock::now();
  if (request.tenant.empty()) {
    return Status::InvalidArgument("JobRequest.tenant must be set");
  }
  if (request.plan.empty()) {
    return Status::InvalidArgument("JobRequest.plan has no stages");
  }
  DMB_RETURN_NOT_OK(request.plan.Validate());
  int64_t charge = request.memory_budget_bytes;
  if (charge <= 0) {
    for (const auto& stage : request.plan.stages()) {
      charge = std::max(charge, stage.spec.job.memory_budget_bytes);
    }
  }
  if (charge <= 0) charge = options_.default_charge_bytes;

  MutexLock lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("job server is shut down");
  }
  Tenant& tenant = GetTenant(request.tenant);
  ++tenant.counters.submitted;
  if (charge > tenant.budget.quota()) {
    ++tenant.counters.rejected;
    return Status::ResourceExhausted(
        "job charge of " + std::to_string(charge) + " bytes exceeds tenant '" +
        request.tenant + "' quota of " +
        std::to_string(tenant.budget.quota()) + " bytes");
  }
  if (queue_.TenantQueued(request.tenant) >=
      static_cast<size_t>(options_.max_queued_jobs_per_tenant)) {
    ++tenant.counters.rejected;
    return Status::ResourceExhausted(
        "tenant '" + request.tenant + "' queue is full (" +
        std::to_string(options_.max_queued_jobs_per_tenant) + " jobs)");
  }
  if (queue_.TenantQueuedBytes(request.tenant) + charge >
      options_.max_queued_bytes_per_tenant) {
    ++tenant.counters.rejected;
    return Status::ResourceExhausted(
        "tenant '" + request.tenant + "' queued charge would exceed " +
        std::to_string(options_.max_queued_bytes_per_tenant) + " bytes");
  }

  const JobId id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->tenant = request.tenant;
  job->charge = charge;
  job->deadline_ms = request.deadline_ms;
  job->plan = std::move(request.plan);
  job->cancel = std::make_shared<CancelToken>();
  job->submit_tp = t0;
  queue_.Push({id, request.tenant, request.priority, charge});
  if (request.deadline_ms > 0) {
    deadlines_.emplace(t0 + std::chrono::milliseconds(request.deadline_ms),
                       id);
    reaper_cv_.NotifyAll();
  }
  job->admit_seconds = Seconds(t0, Clock::now());
  jobs_.emplace(id, std::move(job));
  work_cv_.NotifyOne();
  return id;
}

void JobServer::WorkerLoop() {
  mu_.Lock();
  for (;;) {
    Job* job = nullptr;
    for (;;) {
      std::optional<QueueItem> item =
          queue_.PopNext([this](const QueueItem& it) {
            Tenant& t = GetTenant(it.tenant);
            return t.budget.in_use() + it.charge_bytes <= t.budget.quota();
          });
      if (item) {
        job = jobs_.at(item->id).get();
        break;
      }
      if (shutdown_) {
        mu_.Unlock();
        return;
      }
      // WaitGraph: a parked worker waits on the fair queue; workers
      // running jobs hold it (registered below), so a report names the
      // jobs that would have to finish for this worker to dispatch.
      WaitScope parked(&queue_, "JobServer worker fair-queue park");
      work_cv_.Wait(mu_);
    }

    Tenant& tenant = GetTenant(job->tenant);
    tenant.budget.TryCharge(job->charge);
    job->state = JobState::kRunning;
    job->dispatch_tp = Clock::now();
    ++running_jobs_;

    runtime::SchedulerOptions sched;
    sched.max_concurrent_stages = options_.max_concurrent_stages;
    sched.cancel = job->cancel;
    sched.stage_pool = stage_pool_.get();
    const runtime::Plan& plan = job->plan;

    mu_.Unlock();
    Result<runtime::PlanOutput> run = [&]() -> Result<runtime::PlanOutput> {
      // This worker holds a dispatch slot (the fair queue) and the job
      // itself; Wait(id) callers park on the job pointer.
      HoldScope slot(&queue_, "JobServer worker running a job");
      HoldScope running(job, "running job");
      return engine_->RunPlan(plan, sched);
    }();
    mu_.Lock();

    const Clock::time_point now = Clock::now();
    job->state = JobState::kDone;
    job->result.status = run.status();
    if (run.ok()) job->result.output = std::move(run).value();
    job->result.stats.admit_seconds = job->admit_seconds;
    job->result.stats.queue_seconds = Seconds(job->submit_tp, job->dispatch_tp);
    job->result.stats.run_seconds = Seconds(job->dispatch_tp, now);
    job->result.stats.total_seconds = Seconds(job->submit_tp, now);
    job->result.stats.charged_bytes = job->charge;

    tenant.budget.Release(job->charge);
    queue_.Release(job->tenant);
    --running_jobs_;
    if (job->result.status.ok()) {
      ++tenant.counters.completed;
      tenant.latency.Record(job->result.stats.total_seconds);
      latency_.Record(job->result.stats.total_seconds);
    } else if (job->result.status.code() == StatusCode::kCancelled) {
      ++tenant.counters.cancelled;
    } else {
      ++tenant.counters.failed;
    }
    done_cv_.NotifyAll();
    // Released budget may make another tenant's head admissible.
    work_cv_.NotifyAll();
  }
}

void JobServer::FinishQueuedJob(Job* job, Status status) {
  const Clock::time_point now = Clock::now();
  job->state = JobState::kDone;
  job->result.status = std::move(status);
  job->result.stats.admit_seconds = job->admit_seconds;
  job->result.stats.queue_seconds = Seconds(job->submit_tp, now);
  job->result.stats.total_seconds = Seconds(job->submit_tp, now);
  job->result.stats.charged_bytes = 0;  // never dispatched, never charged
  ++GetTenant(job->tenant).counters.cancelled;
  done_cv_.NotifyAll();
}

bool JobServer::CancelWithStatus(JobId id, const Status& status) {
  std::shared_ptr<CancelToken> token;
  {
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->state == JobState::kDone) {
      return false;
    }
    Job* job = it->second.get();
    if (job->state == JobState::kQueued) {
      queue_.Remove(id);
      FinishQueuedJob(job, status);
      return true;
    }
    token = job->cancel;
  }
  // Fired outside the lock: callbacks (the scheduler's channel fan-out)
  // must never run under the server mutex.
  token->Cancel(status);
  return true;
}

bool JobServer::Cancel(JobId id) {
  return CancelWithStatus(id, Status::Cancelled("cancelled by client"));
}

Result<JobResult> JobServer::Wait(JobId id) {
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->waited) {
    return Status::NotFound("job " + std::to_string(id) +
                            " unknown or already consumed");
  }
  Job* job = it->second.get();
  job->waited = true;
  while (job->state != JobState::kDone) {
    // Queued jobs have no registered holder, so a Wait on one never
    // participates in a reported cycle (the dispatcher will get to it).
    WaitScope waiting(job, "JobServer::Wait for job completion");
    done_cv_.Wait(mu_);
  }
  JobResult result = std::move(job->result);
  jobs_.erase(id);
  return result;
}

void JobServer::ReaperLoop() {
  mu_.Lock();
  while (!shutdown_) {
    if (deadlines_.empty()) {
      reaper_cv_.Wait(mu_);
      continue;
    }
    const Clock::time_point now = Clock::now();
    // A copy: wait_until reads its deadline again after waking, and a
    // Submit during the wait may reallocate the heap under top().
    const Clock::time_point next = deadlines_.top().first;
    if (next > now) {
      // Timed wait: never registered with the WaitGraph (it cannot be
      // part of a deadlock — it wakes on its own).
      reaper_cv_.WaitUntil(mu_, next);
      continue;
    }
    // Collect expired running jobs' tokens; fire them outside the lock.
    std::vector<std::pair<std::shared_ptr<CancelToken>, Status>> fire;
    while (!deadlines_.empty() && deadlines_.top().first <= now) {
      const JobId id = deadlines_.top().second;
      deadlines_.pop();
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second->state == JobState::kDone) continue;
      Job* job = it->second.get();
      Status expired = Status::Cancelled(
          "deadline of " + std::to_string(job->deadline_ms) + "ms exceeded");
      if (job->state == JobState::kQueued) {
        queue_.Remove(id);
        FinishQueuedJob(job, std::move(expired));
      } else {
        fire.emplace_back(job->cancel, std::move(expired));
      }
    }
    if (!fire.empty()) {
      mu_.Unlock();
      for (auto& [token, status] : fire) token->Cancel(status);
      mu_.Lock();
    }
  }
  mu_.Unlock();
}

ServerStats JobServer::Stats() const {
  MutexLock lock(mu_);
  ServerStats stats;
  stats.cache = engine_->cache()->Stats();
  stats.uptime_seconds = Seconds(start_tp_, Clock::now());
  const double uptime = std::max(stats.uptime_seconds, 1e-9);
  for (const auto& [name, tenant] : tenants_) {
    TenantStats ts = tenant.counters;
    ts.queued = static_cast<int64_t>(queue_.TenantQueued(name));
    ts.running = queue_.Running(name);
    ts.in_use_bytes = tenant.budget.in_use();
    ts.quota_bytes = tenant.budget.quota();
    ts.jobs_per_second = static_cast<double>(ts.completed) / uptime;
    if (tenant.latency.count() > 0) {
      ts.p50_total_seconds = tenant.latency.Percentile(0.5);
      ts.p99_total_seconds = tenant.latency.Percentile(0.99);
    }
    stats.submitted += ts.submitted;
    stats.completed += ts.completed;
    stats.rejected += ts.rejected;
    stats.cancelled += ts.cancelled;
    stats.failed += ts.failed;
    stats.tenants.emplace(name, std::move(ts));
  }
  stats.queued = static_cast<int64_t>(queue_.size());
  stats.running = running_jobs_;
  stats.jobs_per_second = static_cast<double>(stats.completed) / uptime;
  if (latency_.count() > 0) {
    stats.p50_total_seconds = latency_.Percentile(0.5);
    stats.p99_total_seconds = latency_.Percentile(0.99);
  }
  return stats;
}

void JobServer::Shutdown() {
  {
    MutexLock lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      // Every still-queued job finishes now as cancelled; running jobs
      // drain normally on the workers.
      std::vector<JobId> queued;
      for (const auto& [id, job] : jobs_) {
        if (job->state == JobState::kQueued) queued.push_back(id);
      }
      for (JobId id : queued) {
        Job* job = jobs_.at(id).get();
        queue_.Remove(id);
        FinishQueuedJob(job, Status::Cancelled("server shutting down"));
      }
    }
    work_cv_.NotifyAll();
    reaper_cv_.NotifyAll();
    done_cv_.NotifyAll();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (reaper_.joinable()) reaper_.join();
  if (stage_pool_) stage_pool_->Shutdown();
}

}  // namespace dmb::service
