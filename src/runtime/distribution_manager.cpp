#include "runtime/distribution_manager.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/payload_arena.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {

namespace {

constexpr comm::Tag kFetchRequestTag = 0x0F00;

/// Sentinel sample id: a FetchRequest carrying it is an inventory request
/// (same tag and server loop as demand fetches, so one serve thread handles
/// both and a killed node's poison pill still works unchanged).
constexpr SampleId kInventorySample = kInvalidSample - 1;

/// Sentinel sample id: a FetchRequest carrying it is a batched multi-get.
/// The request body continues with a count and that many sample ids; the
/// reply interleaves per-sample headers and payload bytes (DESIGN.md §8).
constexpr SampleId kMultiGetSample = kInvalidSample - 2;

// Envelope heads (DESIGN.md §14). Requests open with
// [u64 request id][u32 sample][4 zero bytes], replies with
// [u32 sample][u8 found][3 zero bytes]. The padding is part of the layout:
// the bus's corruption fault flips the last byte of small messages, which
// lands on a request's padding and leaves the request intact.
constexpr std::size_t kRequestHeadBytes = 16;
constexpr std::size_t kReplyHeadBytes = 8;

void put_request_head(wire::Writer& w, std::uint64_t request_id, SampleId sample) {
  w.u64(request_id);
  w.u32(sample);
  w.zeros(4);
}

std::vector<std::byte> request_head(std::uint64_t request_id, SampleId sample) {
  std::vector<std::byte> bytes;
  wire::Writer w(bytes);
  put_request_head(w, request_id, sample);
  return bytes;
}

void put_reply_head(wire::Writer& w, SampleId sample, std::uint8_t found) {
  w.u32(sample);
  w.u8(found);
  w.zeros(3);
}

struct ReplyHead {
  SampleId sample = kInvalidSample;
  std::uint8_t found = 0;
};

ReplyHead read_reply_head(wire::Reader& r) {
  ReplyHead head;
  head.sample = r.u32();
  head.found = r.u8();
  r.skip(3);
  return head;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counter-mode pattern word: chunk `k` of a payload is derived directly
/// from (seed, k) with the splitmix64 finalizer, so consecutive chunks have
/// no data dependency and the CPU pipelines them. (The earlier chained
/// `state = splitmix64(state)` form serialized one mix latency per 8 bytes,
/// which dominated cold-miss materialization at 4KB payloads.)
std::uint64_t pattern_word(std::uint64_t seed, std::uint64_t chunk) noexcept {
  std::uint64_t z = seed + (chunk + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Keyed-pattern fill, one independent pattern_word per 8-byte chunk.
/// `begin` is always chunk-aligned (0, 8, or 16); the byte-tail derivation
/// matches the word path (byte i == (word >> ((i % 8) * 8)) & 0xFF) so
/// endianness never changes what verification accepts.
void fill_pattern(std::byte* data, std::size_t begin, std::size_t size,
                  std::uint64_t seed) {
  std::size_t i = begin;
  std::uint64_t chunk = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + sizeof(std::uint64_t) <= size; i += sizeof(std::uint64_t), ++chunk) {
      const std::uint64_t word = pattern_word(seed, chunk);
      std::memcpy(data + i, &word, sizeof(word));
    }
  }
  for (; i < size; ++i) {
    const std::uint64_t word = pattern_word(seed, (i - begin) / 8);
    data[i] = static_cast<std::byte>((word >> ((i % 8) * 8)) & 0xFF);
  }
}

/// Word-wise verification twin of fill_pattern; no allocation.
bool check_pattern(const std::byte* data, std::size_t begin, std::size_t size,
                   std::uint64_t seed) {
  std::size_t i = begin;
  std::uint64_t chunk = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + sizeof(std::uint64_t) <= size; i += sizeof(std::uint64_t), ++chunk) {
      const std::uint64_t want = pattern_word(seed, chunk);
      std::uint64_t got = 0;
      std::memcpy(&got, data + i, sizeof(got));
      if (got != want) return false;
    }
  }
  for (; i < size; ++i) {
    const std::uint64_t word = pattern_word(seed, (i - begin) / 8);
    if (data[i] != static_cast<std::byte>((word >> ((i % 8) * 8)) & 0xFF)) return false;
  }
  return true;
}

/// Header layout shared by generation and verification: id, then length,
/// each included only when the payload is long enough to carry it.
std::size_t pattern_offset(std::size_t size) {
  if (size >= sizeof(SampleId) + sizeof(std::uint64_t)) {
    return sizeof(SampleId) + sizeof(std::uint64_t);
  }
  return size >= sizeof(SampleId) ? sizeof(SampleId) : 0;
}

}  // namespace

std::uint64_t inventory_checksum(const std::vector<SampleId>& samples) noexcept {
  std::uint64_t hash = 0x1AB5'7E12'D00D'F00DULL ^ samples.size();
  for (const SampleId s : samples) {
    std::uint64_t state = s;
    hash ^= splitmix64(state);
  }
  return hash;
}

void make_sample_payload_into(SampleId sample, Bytes size, std::byte* dst) {
  const auto n = static_cast<std::size_t>(size);
  // Header authenticates both the id and the length, so truncated or padded
  // payloads fail verification (not just corrupted ones).
  if (n >= sizeof(SampleId)) {
    std::memcpy(dst, &sample, sizeof(SampleId));
  }
  if (n >= sizeof(SampleId) + sizeof(std::uint64_t)) {
    const std::uint64_t length = size;
    std::memcpy(dst + sizeof(SampleId), &length, sizeof(length));
  }
  fill_pattern(dst, pattern_offset(n), n, derive_seed(0xC0FFEEULL, sample));
}

std::vector<std::byte> make_sample_payload(SampleId sample, Bytes size) {
  std::vector<std::byte> payload(static_cast<std::size_t>(size));
  make_sample_payload_into(sample, size, payload.data());
  return payload;
}

comm::PayloadPtr make_sample_payload_shared(SampleId sample, Bytes size) {
  auto buffer = PayloadArena::acquire(static_cast<std::size_t>(size));
  make_sample_payload_into(sample, size, buffer->data());
  return buffer;
}

bool verify_sample_payload(SampleId sample, const std::byte* data, std::size_t size) {
  if (size >= sizeof(SampleId)) {
    SampleId got = kInvalidSample;
    std::memcpy(&got, data, sizeof(got));
    if (got != sample) return false;
  }
  if (size >= sizeof(SampleId) + sizeof(std::uint64_t)) {
    std::uint64_t length = 0;
    std::memcpy(&length, data + sizeof(SampleId), sizeof(length));
    if (length != size) return false;
  }
  return check_pattern(data, pattern_offset(size), size, derive_seed(0xC0FFEEULL, sample));
}

bool verify_sample_payload(SampleId sample, const std::vector<std::byte>& payload) {
  return verify_sample_payload(sample, payload.data(), payload.size());
}

DistributionManager::DistributionManager(comm::Endpoint& endpoint,
                                         std::function<bool(SampleId)> has_sample,
                                         std::function<Bytes(SampleId)> sample_size,
                                         FetchPolicy policy)
    : endpoint_(endpoint),
      has_sample_(std::move(has_sample)),
      sample_size_(std::move(sample_size)),
      policy_(policy),
      breakers_(endpoint.world_size()) {}

DistributionManager::~DistributionManager() { stop(); }

void DistributionManager::start() {
  if (running_.exchange(true)) return;
  server_ = std::jthread([this] { serve_loop(); });
}

void DistributionManager::stop() {
  if (!running_.exchange(false)) return;
  // Poison request to our own server loop so it observes running_ == false.
  // A self-send never crosses the (possibly faulty) fabric, so this works
  // even when this node has been killed by a FaultPlan.
  (void)endpoint_.send(endpoint_.rank(), kFetchRequestTag, request_head(0, kInvalidSample));
  if (server_.joinable()) server_.join();
}

void DistributionManager::serve_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto message = endpoint_.recv(kFetchRequestTag);
    if (!message.has_value()) return;  // bus shutdown
    wire::Reader in(message->bytes());
    const std::uint64_t request_id = in.u64();
    const SampleId sample = in.u32();
    in.skip(4);
    // Poison (the loop re-checks running_) or a request too short to answer.
    if (sample == kInvalidSample || !in.ok()) continue;
    if (sample == kInventorySample) {
      serve_inventory(*message, request_id);
      continue;
    }
    if (sample == kMultiGetSample) {
      serve_multi_get(*message, request_id);
      continue;
    }

    // Handler span parented under the REQUESTER's attempt span (the bus
    // stamped its context into the request), so the serve time shows up
    // inside the cross-rank fetch tree. The reply send happens inside the
    // span's lifetime, stamping the serve context back onto the wire.
    telemetry::Span serve(telemetry::SpanKind::kServe, endpoint_.rank(),
                          telemetry::TraceContext{message->trace_id, message->span_id, 0},
                          sample);
    std::size_t total = kReplyHeadBytes;
    Bytes size = 0;
    const bool found = has_sample_ && has_sample_(sample);
    if (found) {
      size = sample_size_ ? sample_size_(sample) : 64;
      total += static_cast<std::size_t>(size);
      ++served_;
    } else {
      ++failed_;
      serve.set_status(StatusCode::kNotFound);
    }
    // One arena buffer, materialized in place, shared zero-copy onto the
    // wire — the serve path never touches the global heap.
    auto response = PayloadArena::acquire(total);
    wire::Writer out(*response);
    put_reply_head(out, sample, found ? 1 : 0);
    if (found) make_sample_payload_into(sample, size, out.reserve(static_cast<std::size_t>(size)));
    const Status sent = endpoint_.send(message->source, response_tag(request_id),
                                       comm::PayloadPtr(std::move(response)));
    count_serve_send_failure(sent, message->source, request_id);
  }
}

void DistributionManager::serve_multi_get(const comm::Message& request_message,
                                          std::uint64_t request_id) {
  telemetry::Span serve(
      telemetry::SpanKind::kServe, endpoint_.rank(),
      telemetry::TraceContext{request_message.trace_id, request_message.span_id, 0},
      kMultiGetSample);
  wire::Reader in(request_message.bytes());
  in.skip(kRequestHeadBytes);
  const std::uint64_t claimed = in.u64();
  // A truncated or garbled request yields fewer ids than claimed; serve
  // what is actually present — the requester detects the shortfall from
  // the reply framing and treats the remainder as corrupt.
  std::vector<SampleId> ids(static_cast<std::size_t>(
      std::min<std::uint64_t>(claimed, in.remaining() / sizeof(SampleId))));
  for (SampleId& id : ids) id = in.u32();

  // Pass 1 sizes the reply exactly; pass 2 materializes every payload
  // directly into one arena buffer (no per-sample allocation, one send).
  std::vector<Bytes> sizes(ids.size(), 0);
  std::size_t total = kReplyHeadBytes + sizeof(std::uint64_t);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    total += sizeof(SampleId) + sizeof(std::uint64_t);
    if (has_sample_ && has_sample_(ids[i])) {
      sizes[i] = sample_size_ ? sample_size_(ids[i]) : 64;
      total += static_cast<std::size_t>(sizes[i]);
      ++served_;
    } else {
      ++failed_;
    }
  }
  auto reply = PayloadArena::acquire(total);
  wire::Writer out(*reply);
  put_reply_head(out, kMultiGetSample, 1);
  out.u64(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.u32(ids[i]);
    out.u64(sizes[i]);
    if (sizes[i] > 0) {
      make_sample_payload_into(ids[i], sizes[i], out.reserve(static_cast<std::size_t>(sizes[i])));
    }
  }
  const Status sent = endpoint_.send(request_message.source, response_tag(request_id),
                                     comm::PayloadPtr(std::move(reply)));
  count_serve_send_failure(sent, request_message.source, request_id);
}

void DistributionManager::serve_inventory(const comm::Message& request_message,
                                          std::uint64_t request_id) {
  telemetry::Span serve(
      telemetry::SpanKind::kServe, endpoint_.rank(),
      telemetry::TraceContext{request_message.trace_id, request_message.span_id, 0},
      kInventorySample);
  const std::vector<SampleId> samples =
      inventory_source_ ? inventory_source_() : std::vector<SampleId>{};
  std::vector<std::byte> response;
  wire::Writer out(response);
  put_reply_head(out, kInventorySample, 1);
  out.u64(samples.size());
  for (const SampleId s : samples) out.u32(s);
  out.u64(inventory_checksum(samples));
  ++served_;
  const Status sent = endpoint_.send(request_message.source, response_tag(request_id),
                                     std::move(response));
  count_serve_send_failure(sent, request_message.source, request_id);
}

void DistributionManager::count_serve_send_failure(const Status& sent, comm::Rank requester,
                                                   std::uint64_t request_id) {
  if (sent.ok()) return;
  ++serve_send_failures_;
  LOBSTER_METRIC_COUNT("dm.serve_send_failures", 1);
  telemetry::EventLog::instance().emit(telemetry::EventKind::kServeSendFailure,
                                       endpoint_.rank(), request_id, requester,
                                       sent.code_name());
}

bool DistributionManager::breaker_open(comm::Rank holder) const {
  if (holder >= breakers_.size()) return false;
  const std::int64_t until = breakers_[holder].open_until_ns.load(std::memory_order_acquire);
  return until != 0 && steady_now_ns() < until;
}

void DistributionManager::record_success(comm::Rank holder) {
  Breaker& breaker = breakers_[holder];
  breaker.consecutive_timeouts.store(0, std::memory_order_relaxed);
  breaker.consecutive_corrupts.store(0, std::memory_order_relaxed);
  // Half-open probe succeeded (or the peer was healthy all along): close,
  // and tell the recovery layer the peer is answering again.
  if (breaker.open_until_ns.exchange(0, std::memory_order_acq_rel) != 0) {
    ++breaker_closes_;
    LOBSTER_METRIC_COUNT("dm.breaker_closes", 1);
    telemetry::EventLog::instance().emit(telemetry::EventKind::kBreakerClose, holder, 0,
                                         endpoint_.rank());
    if (on_breaker_close_) on_breaker_close_(holder);
  }
}

void DistributionManager::open_breaker(comm::Rank holder) {
  Breaker& breaker = breakers_[holder];
  const std::int64_t until =
      steady_now_ns() + static_cast<std::int64_t>(policy_.breaker_cooldown * 1e9);
  if (breaker.open_until_ns.exchange(until, std::memory_order_acq_rel) == 0) {
    ++breaker_opens_;
    LOBSTER_METRIC_COUNT("dm.breaker_opens", 1);
    telemetry::EventLog::instance().emit(
        telemetry::EventKind::kBreakerOpen, holder,
        breaker.consecutive_timeouts.load(std::memory_order_relaxed),
        breaker.consecutive_corrupts.load(std::memory_order_relaxed));
  }
}

void DistributionManager::record_timeout(comm::Rank holder) {
  ++timeouts_;
  LOBSTER_METRIC_COUNT("comm.timeouts", 1);
  Breaker& breaker = breakers_[holder];
  const std::uint32_t run = breaker.consecutive_timeouts.fetch_add(1) + 1;
  if (policy_.breaker_threshold > 0 && run >= policy_.breaker_threshold) {
    open_breaker(holder);
  }
}

void DistributionManager::record_corrupt(comm::Rank holder) {
  ++corrupt_replies_;
  LOBSTER_METRIC_COUNT("comm.corrupt_replies", 1);
  ++corrupt_strikes_;
  LOBSTER_METRIC_COUNT("dm.corrupt_strikes", 1);
  Breaker& breaker = breakers_[holder];
  const std::uint32_t run = breaker.consecutive_corrupts.fetch_add(1) + 1;
  if (policy_.corrupt_strike_threshold > 0 && run >= policy_.corrupt_strike_threshold) {
    open_breaker(holder);
  }
}

Result<std::vector<std::byte>> DistributionManager::fetch_once(SampleId sample,
                                                               comm::Rank holder) {
  // One attempt = one span; the request send inside its lifetime carries
  // the attempt's context to the serving rank. arg = sample, arg2 = holder.
  telemetry::Span attempt(telemetry::SpanKind::kAttempt, endpoint_.rank(), sample);
  attempt.set_arg2(holder);
  const auto report = [&attempt](Status status) {
    attempt.set_status(status.code());
    return status;
  };

  const std::uint64_t request_id = next_request_id_.fetch_add(1);
  if (Status sent = endpoint_.send(holder, kFetchRequestTag, request_head(request_id, sample));
      !sent.ok()) {
    return report(sent);
  }

  auto response = endpoint_.recv_for(response_tag(request_id), policy_.timeout);
  if (!response.ok()) return report(response.status());
  wire::Reader in(response->bytes());
  const ReplyHead head = read_reply_head(in);
  if (!in.ok()) return report(Status::corrupt("reply truncated"));
  if (head.found == 0) return report(Status::not_found("peer no longer holds sample"));
  // Copy the slice out once, then verify the copy: the buffer checked is
  // the buffer delivered, so the caller need not check it again.
  const auto body = in.bytes(in.remaining());
  std::vector<std::byte> payload(body.begin(), body.end());
  if (!verify_sample_payload(sample, payload)) {
    return report(Status::corrupt("payload failed verification"));
  }
  return payload;
}

Result<std::vector<std::byte>> DistributionManager::fetch_remote(SampleId sample,
                                                                 comm::Rank holder) {
  if (breaker_open(holder)) {
    LOBSTER_METRIC_COUNT("comm.peer_down", 1);
    telemetry::Span::instant(telemetry::SpanKind::kBreakerFastFail, endpoint_.rank(),
                             sample, holder);
    return Status::peer_down("circuit breaker open for peer " + std::to_string(holder));
  }

  Seconds backoff = policy_.backoff_base;
  const std::uint32_t attempts = 1 + policy_.max_retries;
  Status last = Status::timeout("no attempt made");
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      LOBSTER_METRIC_COUNT("comm.retries", 1);
      telemetry::Span sleep(telemetry::SpanKind::kBackoff, endpoint_.rank(), sample);
      sleep.set_arg2(attempt);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, policy_.backoff_cap);
    }
    auto result = fetch_once(sample, holder);
    if (result.ok()) {
      record_success(holder);
      return result;
    }
    last = result.status();
    switch (last.code()) {
      case StatusCode::kTimeout:
        record_timeout(holder);
        // The timeout that trips the breaker still reports kTimeout — only
        // later fetches that find it already open get the instant kPeerDown.
        // But once open there is no point burning the rest of the budget.
        if (breaker_open(holder)) return last;
        break;  // retry
      case StatusCode::kNotFound:
        // Authoritative answer from a live peer: reset its failure run.
        record_success(holder);
        return last;
      case StatusCode::kCorrupt:
        // The peer answered with garbage: strike it and report immediately.
        // Retrying the same peer would re-fetch the same bad copy — the
        // caller must route to the next holder (or the PFS) instead.
        record_corrupt(holder);
        return last;
      case StatusCode::kShutdown:
        return last;
      default:
        return last;  // peer_down / unexpected — not retryable here
    }
  }
  return last;
}

std::vector<Result<comm::PayloadPtr>> DistributionManager::fetch_remote_many(
    comm::Rank holder, const std::vector<SampleId>& samples, IterId iter) {
  std::vector<Result<comm::PayloadPtr>> results;
  if (samples.empty()) return results;
  results.reserve(samples.size());

  if (breaker_open(holder)) {
    LOBSTER_METRIC_COUNT("comm.peer_down", 1);
    telemetry::Span::instant(telemetry::SpanKind::kBreakerFastFail, endpoint_.rank(),
                             samples.front(), holder);
    const Status down =
        Status::peer_down("circuit breaker open for peer " + std::to_string(holder));
    for (std::size_t i = 0; i < samples.size(); ++i) results.emplace_back(down);
    return results;
  }

  Status last = Status::timeout("no attempt made");
  bool answered = false;
  {
    // One root span per batch round (arg = holder, arg2 = iter). It closes
    // with this scope, BEFORE any caller-side per-sample fallback runs, so
    // fallback fetches root their own kFetch trees — the span-analysis
    // gates that count fetch-rooted traces are unaffected by batching.
    telemetry::Span multi(telemetry::SpanKind::kMultiGet, endpoint_.rank(), holder);
    multi.set_arg2(iter);

    Seconds backoff = policy_.backoff_base;
    const std::uint32_t attempts = 1 + policy_.max_retries;
    for (std::uint32_t round = 0; round < attempts && !answered; ++round) {
      if (round > 0) {
        ++retries_;
        LOBSTER_METRIC_COUNT("comm.retries", 1);
        telemetry::Span sleep(telemetry::SpanKind::kBackoff, endpoint_.rank(),
                              samples.front());
        sleep.set_arg2(round);
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * 2.0, policy_.backoff_cap);
      }
      // One envelope per attempt, whatever the batch size. arg = batch
      // size, arg2 = holder.
      telemetry::Span attempt(telemetry::SpanKind::kAttempt, endpoint_.rank(),
                              samples.size());
      attempt.set_arg2(holder);
      const std::uint64_t request_id = next_request_id_.fetch_add(1);
      auto request = PayloadArena::acquire(kRequestHeadBytes + sizeof(std::uint64_t) +
                                           samples.size() * sizeof(SampleId));
      wire::Writer out(*request);
      put_request_head(out, request_id, kMultiGetSample);
      out.u64(samples.size());
      for (const SampleId s : samples) out.u32(s);
      if (Status sent = endpoint_.send(holder, kFetchRequestTag,
                                       comm::PayloadPtr(std::move(request)));
          !sent.ok()) {
        attempt.set_status(sent.code());
        last = sent;
        break;
      }
      auto response = endpoint_.recv_for(response_tag(request_id), policy_.timeout);
      if (!response.ok()) {
        attempt.set_status(response.status().code());
        last = response.status();
        if (last.code() != StatusCode::kTimeout) break;  // shutdown etc.
        // One breaker strike per failed *envelope*, not per sample.
        record_timeout(holder);
        if (breaker_open(holder)) break;
        continue;  // retry the whole batch
      }

      answered = true;
      wire::Reader in(response->bytes());
      const ReplyHead head = read_reply_head(in);
      const std::uint64_t reply_count = in.u64();
      bool framing_ok = in.ok() && head.sample == kMultiGetSample && head.found == 1 &&
                        reply_count == samples.size();
      bool any_corrupt = false;
      for (const SampleId sample : samples) {
        const SampleId id = in.u32();
        const std::uint64_t found_size = in.u64();
        const auto body = in.bytes(found_size);
        // A short read or a foreign id loses the framing; the rest of the
        // reply is unreadable.
        framing_ok = framing_ok && in.ok() && id == sample;
        if (!framing_ok) {
          results.emplace_back(Status::corrupt("multi-get reply malformed"));
          any_corrupt = true;
        } else if (found_size == 0) {
          results.emplace_back(Status::not_found("peer no longer holds sample"));
        } else {
          // Copy first, then verify the copy: the delivered buffer is the
          // one checked, exactly once.
          auto buffer = PayloadArena::acquire(body.size());
          std::copy(body.begin(), body.end(), buffer->begin());
          if (verify_sample_payload(sample, *buffer)) {
            results.emplace_back(comm::PayloadPtr(std::move(buffer)));
          } else {
            results.emplace_back(Status::corrupt("payload failed verification"));
            any_corrupt = true;
          }
        }
      }
      attempt.set_status(any_corrupt ? StatusCode::kCorrupt : StatusCode::kOk);
      // Whole-reply accounting mirrors the single-fetch contract: a reply
      // with any corrupt bytes charges ONE strike; a clean reply (found or
      // authoritative not-found alike) resets the peer's failure run.
      if (any_corrupt) {
        record_corrupt(holder);
      } else {
        record_success(holder);
      }
    }
  }

  if (!answered) {
    for (std::size_t i = 0; i < samples.size(); ++i) results.emplace_back(last);
  }
  return results;
}

Result<std::vector<SampleId>> DistributionManager::fetch_inventory(comm::Rank holder) {
  // No breaker_open fast-fail: this call IS the half-open probe a down
  // peer's recovery depends on. It still records the outcome, so success
  // re-closes the breaker and failure keeps it open.
  telemetry::Span probe(telemetry::SpanKind::kInventoryProbe, endpoint_.rank(), holder);
  const auto report = [&probe](Status status) {
    probe.set_status(status.code());
    return status;
  };
  const std::uint64_t request_id = next_request_id_.fetch_add(1);
  if (Status sent =
          endpoint_.send(holder, kFetchRequestTag, request_head(request_id, kInventorySample));
      !sent.ok()) {
    return report(sent);
  }

  auto response = endpoint_.recv_for(response_tag(request_id), policy_.timeout);
  if (!response.ok()) {
    if (response.status().code() == StatusCode::kTimeout) record_timeout(holder);
    return report(response.status());
  }
  wire::Reader in(response->bytes());
  const ReplyHead head = read_reply_head(in);
  std::vector<SampleId> samples(in.count<std::uint64_t>(sizeof(SampleId)));
  for (SampleId& s : samples) s = in.u32();
  const std::uint64_t checksum = in.u64();
  if (!in.done() || head.sample != kInventorySample || head.found != 1) {
    record_corrupt(holder);
    return report(Status::corrupt("inventory reply malformed"));
  }
  if (checksum != inventory_checksum(samples)) {
    record_corrupt(holder);
    return report(Status::corrupt("inventory checksum mismatch"));
  }
  record_success(holder);
  return samples;
}

}  // namespace lobster::runtime
