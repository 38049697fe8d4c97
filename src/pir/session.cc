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

ServerSession::ServerSession(std::span<const u8> params_blob)
    : ServerSession(deserializeParams(params_blob))
{
}

ServerSession::ServerSession(const PirParams &params)
    : params_(params), ctx_(params_.he), db_(ctx_, params_)
{
}

void
ServerSession::ingestKeys(std::span<const u8> key_blob)
{
    server_ = std::make_unique<PirServer>(
        ctx_, params_, &db_,
        std::make_shared<const PirPublicKeys>(
            deserializePublicKeys(ctx_, params_, key_blob)));
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
        if (engine.numShards() == 1)
            out = serializeResponse(ctx, PirResponse{std::move(planes)});
        else
            out = serializePartialResponse(
                ctx, PirPartialResponse{engine.shard(),
                                        engine.numShards(),
                                        std::move(planes)});
    }
    sm.responseBytes.add(out.size());
    sm.queries.add(1);
    return out;
}

std::vector<u8>
ServerSession::answer(std::span<const u8> query_blob) const
{
    return answerQuery(server(), query_blob);
}

const ServerCounters &
ServerSession::counters() const
{
    return server().counters();
}

} // namespace ive
