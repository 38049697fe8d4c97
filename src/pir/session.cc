#include "pir/session.hh"

#include "common/logging.hh"
#include "obs/trace.hh"

namespace ive {

namespace {

/**
 * Request/response accounting at the bytes-only session boundary plus
 * the end-to-end answer and serialize stage histograms. The answer
 * span opens after the QueryTrace so trace capture sees the whole
 * query, including response serialization.
 */
struct SessionMetrics
{
    obs::Counter &queries;
    obs::Counter &requestBytes;
    obs::Counter &responseBytes;
    obs::Histogram &answerNs;
    obs::Histogram &serializeNs;
};

SessionMetrics &
sessionMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    static SessionMetrics m{
        r.counter(n::kSessionQueries, "queries answered over the wire"),
        r.counter(n::kSessionRequestBytes,
                  "query blob bytes received"),
        r.counter(n::kSessionResponseBytes,
                  "response blob bytes produced"),
        r.histogram(n::kStageAnswer, "serving stage latency, by stage"),
        r.histogram(n::kStageSerialize,
                    "serving stage latency, by stage"),
    };
    return m;
}

} // namespace

ClientSession::ClientSession(const PirParams &params, u64 seed)
    : params_(params), ctx_(params_.he), client_(ctx_, params_, seed)
{
    // Generate keys eagerly: keyBlob() becomes a cheap (repeatable)
    // copy, and the query RNG stream no longer depends on whether or
    // how often the caller asked for the key blob.
    keyBlob_ = serializePublicKeys(ctx_, client_.genPublicKeys());
}

std::vector<u8>
ClientSession::paramsBlob() const
{
    return serializeParams(params_);
}

std::vector<u8>
ClientSession::keyBlob() const
{
    return keyBlob_;
}

std::vector<u8>
ClientSession::queryBlob(u64 entry_index)
{
    return serializeQuery(ctx_, client_.makeQuery(entry_index));
}

std::vector<std::vector<u64>>
ClientSession::decodeResponse(std::span<const u8> response_blob) const
{
    PirResponse resp = deserializeResponse(ctx_, response_blob);
    if (resp.planes.size() != static_cast<u64>(params_.planes))
        throw SerializeError(
            strprintf("response has %zu planes, expected %d",
                      resp.planes.size(), params_.planes));
    std::vector<std::vector<u64>> out;
    for (const BfvCiphertext &ct : resp.planes)
        out.push_back(client_.decode(ct));
    return out;
}

namespace {

/**
 * Record range shard `shard` of `num_shards` covers: whole ColTor
 * columns on a tournament boundary, so the shard's local folds match
 * the monolithic schedule exactly (see pir/server.hh).
 */
std::pair<u64, u64>
shardRecordRange(const PirParams &params, u32 shard, u32 num_shards)
{
    u64 cols = u64{1} << params.d;
    if (num_shards < 1 || !isPow2(num_shards) ||
        u64{num_shards} > cols)
        throw std::invalid_argument(strprintf(
            "shard count %u must be a power of two in [1, 2^d = %llu]",
            num_shards, static_cast<unsigned long long>(cols)));
    if (shard >= num_shards)
        throw std::invalid_argument(
            strprintf("shard index %u out of range for %u shards",
                      shard, num_shards));
    u64 cols_per = cols / num_shards;
    return {u64{shard} * cols_per * params.d0, cols_per * params.d0};
}

} // namespace

ServerSession::ServerSession(std::span<const u8> params_blob, u32 shard,
                             u32 num_shards)
    : ServerSession(deserializeParams(params_blob), shard, num_shards)
{
}

ServerSession::ServerSession(const PirParams &params, u32 shard,
                             u32 num_shards)
    : params_(params), ctx_(params_.he), shard_(shard),
      numShards_(num_shards),
      db_(ctx_, params_,
          shardRecordRange(params_, shard, num_shards).first,
          shardRecordRange(params_, shard, num_shards).second)
{
}

PirPublicKeys
deserializeCompatibleKeys(const HeContext &ctx, const PirParams &params,
                          std::span<const u8> key_blob)
{
    PirPublicKeys keys = deserializePublicKeys(ctx, key_blob);
    // Protocol-level compatibility: the server indexes evks[t] by
    // expansion-tree level and assumes the rotation schedule, so a
    // structurally valid blob from mismatched params must be rejected
    // here (PirServer's constructor would abort on it).
    int depth = params.expansionDepth();
    if (keys.evks.size() < static_cast<u64>(depth))
        throw SerializeError(strprintf(
            "key blob has %zu evks, params need %d expansion levels",
            keys.evks.size(), depth));
    for (int t = 0; t < depth; ++t) {
        u64 want = ctx.n() / (u64{1} << t) + 1;
        if (keys.evks[t].r != want)
            throw SerializeError(strprintf(
                "evk %d rotates by %llu, expansion level needs %llu",
                t, static_cast<unsigned long long>(keys.evks[t].r),
                static_cast<unsigned long long>(want)));
    }
    return keys;
}

void
ServerSession::ingestKeys(std::span<const u8> key_blob)
{
    PirPublicKeys keys =
        deserializeCompatibleKeys(ctx_, params_, key_blob);
    server_ = std::make_unique<PirServer>(ctx_, params_, &db_,
                                          std::move(keys));
}

const PirServer &
ServerSession::server() const
{
    if (!server_)
        throw std::logic_error(
            "ServerSession: no client keys ingested yet");
    return *server_;
}

std::vector<u8>
answerQuery(const PirServer &engine, std::span<const u8> query_blob)
{
    SessionMetrics &sm = sessionMetrics();
    obs::Tracer::QueryTrace trace("answer");
    obs::StageSpan whole(&sm.answerNs, "answer");
    sm.requestBytes.add(query_blob.size());
    const HeContext &ctx = engine.context();
    PirQuery q = deserializeQuery(ctx, query_blob);
    std::vector<BfvCiphertext> planes = engine.processAllPlanes(q);
    std::vector<u8> out;
    {
        obs::StageSpan ser(&sm.serializeNs, "serialize");
        // PirServer's constructor pins a slice to whole columns on a
        // tournament boundary, so its position names the shard.
        const u64 cols = engine.localColumns();
        const u64 all = u64{1} << engine.params().d;
        if (cols == all) {
            out = serializeResponse(ctx, PirResponse{std::move(planes)});
        } else {
            const u64 slice = engine.database()->firstEntry() /
                              (cols * engine.params().d0);
            out = serializePartialResponse(
                ctx, PirPartialResponse{static_cast<u32>(slice),
                                        static_cast<u32>(all / cols),
                                        std::move(planes)});
        }
    }
    sm.responseBytes.add(out.size());
    sm.queries.add(1);
    return out;
}

std::vector<u8>
ServerSession::answer(std::span<const u8> query_blob) const
{
    std::vector<u8> out = answerQuery(server(), query_blob);
    queriesAnswered_.fetch_add(1, std::memory_order_relaxed);
    return out;
}

const ServerCounters &
ServerSession::counters() const
{
    return server().counters();
}

} // namespace ive
