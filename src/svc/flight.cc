#include "svc/flight.hh"

#include "sim/logging.hh"

namespace dagger::svc {

namespace {

/** The one RPC every compute tier serves. */
constexpr proto::FnId kProcess = 1;

/** TierResp status values. */
constexpr std::uint32_t kOk = 1;
constexpr std::uint32_t kDegraded = 2; ///< served without some dependency

#pragma pack(push, 1)
struct TierReq
{
    std::uint64_t passengerId = 0;
};

struct TierResp
{
    std::uint64_t passengerId = 0;
    std::uint32_t status = 0;
};
#pragma pack(pop)

/** Pre-seeded Citizens records. */
constexpr std::uint64_t kCitizens = 200'000;

} // namespace

FlightApp::FlightApp(FlightConfig cfg)
    : _cfg(cfg), _sys(ic::IfaceKind::Upi),
      _rng(cfg.seed), _flightRng(cfg.seed ^ 0x666c69676874ull),
      _staffRng(cfg.seed ^ 0x7374616666ull)
{
    buildTiers();
    installHandlers();
}

void
FlightApp::buildTiers()
{
    nic::SoftConfig soft;
    soft.autoBatch = true; // latency-sensitive tiers: no batch waits

    const bool optimized = _cfg.model == ThreadingModel::Optimized;

    // Tiers (server flow + downstream client flows).  Each tier owns
    // its cores: dispatch on core 0, any worker threads on cores 1+.
    _checkin = std::make_unique<Tier>(_sys, "checkin", 4,
                                      optimized ? 2u : 1u,
                                      nic::NicConfig{}, soft);
    _flight = std::make_unique<Tier>(
        _sys, "flight", 0,
        optimized ? 1u + std::max(1u, _cfg.flightWorkers) : 1u,
        nic::NicConfig{}, soft);
    _baggage = std::make_unique<Tier>(_sys, "baggage", 0, 1u,
                                      nic::NicConfig{}, soft);
    _passport = std::make_unique<Tier>(_sys, "passport", 1,
                                       optimized ? 2u : 1u,
                                       nic::NicConfig{}, soft);
    _airport = std::make_unique<Tier>(_sys, "airport", 0, 1u,
                                      nic::NicConfig{}, soft);
    _citizens = std::make_unique<Tier>(_sys, "citizens", 0, 1u,
                                       nic::NicConfig{}, soft);

    // Reliability knobs (off by default; the storm benches set them).
    if (_cfg.checkinLegBudget > 0)
        _checkin->setTimeoutBudget(_cfg.checkinLegBudget,
                                   _cfg.checkinLegRetries);
    if (_cfg.flightShedQueue > 0)
        _flight->setShedPolicy(rpc::ShedPolicy{_cfg.flightShedQueue});

    // Stores: single-partition MICA caches behind the two DB tiers.
    _airportStore = std::make_unique<app::MicaKvs>(1, 16u << 20, 1u << 15);
    _citizensStore = std::make_unique<app::MicaKvs>(1, 32u << 20, 1u << 16);
    for (std::uint64_t pid = 1; pid <= kCitizens; ++pid)
        _citizensStore->partition(0).set(app::HexKey(pid), "citizen-ok");

    _airportBackend = std::make_unique<app::MicaBackend>(*_airportStore);
    _citizensBackend = std::make_unique<app::MicaBackend>(*_citizensStore);
    _airportSrv = std::make_unique<app::KvsServer>(_airport->server(),
                                                   *_airportBackend);
    _citizensSrv = std::make_unique<app::KvsServer>(_citizens->server(),
                                                    *_citizensBackend);

    // Downstream connections (static LB: each tier has one server flow).
    _toFlight = &_checkin->connectTo(*_flight, nic::LbScheme::Static);
    _toBaggage = &_checkin->connectTo(*_baggage, nic::LbScheme::Static);
    _toPassport = &_checkin->connectTo(*_passport, nic::LbScheme::Static);
    auto &airport_client =
        _checkin->connectTo(*_airport, nic::LbScheme::Static);
    _toAirport = std::make_unique<app::KvsClient>(airport_client);
    auto &citizens_client =
        _passport->connectTo(*_citizens, nic::LbScheme::Static);
    _toCitizens = std::make_unique<app::KvsClient>(citizens_client);

    // Front-ends: client-only nodes, each with its own core.
    nic::NicConfig fe_cfg;
    fe_cfg.numFlows = 1;
    _passengerNode = &_sys.addNode(fe_cfg, soft);
    _passengerCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
    _passengerClient = std::make_unique<rpc::RpcClient>(
        *_passengerNode, 0, _passengerCpus->core(0).thread(0));
    _passengerClient->setConnection(_sys.connect(
        *_passengerNode, 0, _checkin->node(), 0, nic::LbScheme::Static));

    _staffNode = &_sys.addNode(fe_cfg, soft);
    _staffCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
    _staffClient = std::make_unique<rpc::RpcClient>(
        *_staffNode, 0, _staffCpus->core(0).thread(0));
    _staffClient->setConnection(_sys.connect(
        *_staffNode, 0, _airport->node(), 0, nic::LbScheme::Static));
    _staffKvs = std::make_unique<app::KvsClient>(*_staffClient);

    // Optimized threading: worker pools for the long-running services.
    if (optimized) {
        _flight->useWorkerPool(std::max(1u, _cfg.flightWorkers));
        // Check-in and Passport keep their dispatch loops free by
        // running their request processing (the nested-call
        // orchestration) on workers — handlers submit to these pools
        // explicitly since the work completes asynchronously.
        _pools.push_back(std::make_unique<rpc::WorkerPool>(
            _sys, std::vector<rpc::HwThread *>{
                      &_checkin->ownCore(1).thread(0)}));
        _pools.push_back(std::make_unique<rpc::WorkerPool>(
            _sys, std::vector<rpc::HwThread *>{
                      &_passport->ownCore(1).thread(0)}));
    }
}

void
FlightApp::installHandlers()
{
    const bool simple = _cfg.model == ThreadingModel::Simple;

    // Flight: bimodal compute, the bottleneck tier (§5.7).  The draw
    // comes from _costRng: the classic interleaved stream in
    // closed-loop mode, the flight tier's own stream in storm mode.
    _flight->serverThread().registerHandler(
        kProcess, [this](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            TierReq r{};
            if (!req.payloadAs(r)) {
                out.respond = false;
                return out;
            }
            out.cost = _costRng->chance(_cfg.flightCheapFraction)
                ? _cfg.flightCheapCost
                : _cfg.flightExpensiveCost;
            _flight->tracer().record("flight", out.cost);
            TierResp resp{r.passengerId, kOk};
            out.response = proto::PayloadBuf::ofPod(resp);
            return out;
        });

    // Baggage: plain compute.
    _baggage->serverThread().registerHandler(
        kProcess, [this](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            TierReq r{};
            if (!req.payloadAs(r)) {
                out.respond = false;
                return out;
            }
            out.cost = _cfg.baggageCost;
            _baggage->tracer().record("baggage", out.cost);
            TierResp resp{r.passengerId, kOk};
            out.response = proto::PayloadBuf::ofPod(resp);
            return out;
        });

    // Passport: nested blocking call into the Citizens cache.  Under
    // a timeout budget a stranded lookup serves the passport check
    // degraded instead of hanging the tier.
    _passport->serverThread().registerHandler(
        kProcess, [this, simple](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            out.respond = false;
            TierReq r{};
            if (!req.payloadAs(r))
                return out;
            if (simple)
                _passport->serverThread().pause();
            const sim::Tick t0 = _sys.eq().now();
            const auto conn = req.connId();
            const auto rpc_id = req.rpcId();
            const auto fn = req.fnId();
            const std::uint64_t pid = r.passengerId;
            _passport->tracer().record("passport", _cfg.passportCost);
            auto do_lookup = [this, simple, conn, rpc_id, fn, pid, t0] {
                _toCitizens->getChecked(
                    app::HexKey(pid),
                    [this, simple, conn, rpc_id, fn, pid,
                     t0](rpc::CallStatus st, bool hit, std::string_view) {
                        const std::uint32_t status =
                            st != rpc::CallStatus::Ok ? kDegraded
                            : hit                     ? kOk
                                                      : 0u;
                        TierResp resp{pid, status};
                        _passport->serverThread().respondLater(
                            conn, rpc_id, fn, &resp, sizeof(resp));
                        _passport->tracer().record("passport.wall",
                                                   _sys.eq().now() - t0);
                        if (simple)
                            _passport->serverThread().resume();
                    });
            };
            if (simple) {
                out.cost = _cfg.passportCost;
                do_lookup();
            } else {
                // Optimized: request processing moves to the worker.
                _pools.at(1)->submit(_cfg.passportCost,
                                     std::move(do_lookup));
            }
            return out;
        });

    // Check-in: fan-out to Flight/Baggage/Passport, then register in
    // the Airport cache, then answer the front-end.  Legs are status
    // tracked: under a timeout budget an exhausted leg marks the
    // registration degraded instead of stalling it forever.
    _checkin->serverThread().registerHandler(
        kProcess, [this, simple](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            out.respond = false;
            TierReq r{};
            if (!req.payloadAs(r))
                return out;
            if (simple)
                _checkin->serverThread().pause();
            _checkin->tracer().record("checkin", _cfg.checkinCost);

            struct Fanout
            {
                int remaining = 3;
                bool degraded = false;
                proto::ConnId conn;
                proto::RpcId rpc;
                proto::FnId fn;
                std::uint64_t pid;
                sim::Tick t0;
            };
            auto state = std::make_shared<Fanout>();
            state->conn = req.connId();
            state->rpc = req.rpcId();
            state->fn = req.fnId();
            state->pid = r.passengerId;
            state->t0 = _sys.eq().now();

            auto on_part = [this, simple, state](
                               rpc::CallStatus st,
                               const proto::RpcMessage &m) {
                TierResp part{};
                if (st != rpc::CallStatus::Ok ||
                    (m.payloadAs(part) && part.status == kDegraded))
                    state->degraded = true;
                if (--state->remaining > 0)
                    return;
                // All three resolved: blocking call to the Airport DB.
                _toAirport->set(
                    app::HexKey(state->pid), "registered",
                    [this, simple, state](bool) {
                        TierResp resp{state->pid,
                                      state->degraded ? kDegraded : kOk};
                        _checkin->serverThread().respondLater(
                            state->conn, state->rpc, state->fn, &resp,
                            sizeof(resp));
                        _checkin->tracer().record(
                            "checkin.wall", _sys.eq().now() - state->t0);
                        if (simple)
                            _checkin->serverThread().resume();
                    });
            };
            auto do_fanout = [this, state, on_part] {
                TierReq fwd{state->pid};
                _toFlight->callPodStatus(kProcess, fwd, on_part);
                _toBaggage->callPodStatus(kProcess, fwd, on_part);
                _toPassport->callPodStatus(kProcess, fwd, on_part);
            };
            if (simple) {
                out.cost = _cfg.checkinCost;
                do_fanout();
            } else {
                _pools.at(0)->submit(_cfg.checkinCost,
                                     std::move(do_fanout));
            }
            return out;
        });
}

void
FlightApp::issuePassenger(sim::Tick t0)
{
    const std::uint64_t pid = _nextPassenger++;
    ++_issued;
    TierReq r{pid};
    _passengerClient->callPodStatus(
        kProcess, r,
        [this, t0](rpc::CallStatus st, const proto::RpcMessage &m) {
            if (st != rpc::CallStatus::Ok) {
                ++_stormTimeouts;
                return;
            }
            _e2e.record(_sys.eq().now() - t0);
            ++_completed;
            TierResp resp{};
            if (m.payloadAs(resp) && resp.status == kDegraded)
                ++_completedDegraded;
        });
}

void
FlightApp::issueRegistration()
{
    if (_sys.eq().now() >= _stopAt)
        return;
    const double mean_gap_us = 1000.0 / _krps;
    auto fire = [this] {
        if (_sys.eq().now() >= _stopAt)
            return;
        issuePassenger(_sys.eq().now());
        issueRegistration();
    };
    // The open-loop load generator self-schedules once per request;
    // keep it on EventClosure's allocation-free inline path.
    static_assert(sim::EventClosure::fitsInline<decltype(fire)>());
    _sys.eq().schedule(sim::usToTicks(_rng.exponential(mean_gap_us)),
                       std::move(fire));
}

void
FlightApp::run(double krps, sim::Tick duration, sim::Tick drain)
{
    dagger_assert(krps > 0, "offered load must be positive");
    // Closed-loop mode keeps the classic calibration: every draw —
    // arrival gaps, flight cost draws, staff traffic — interleaves on
    // the one _rng stream.
    _krps = krps;
    _stopAt = _sys.now() + duration;
    issueRegistration();
    startStaffDriver(_rng);
    _sys.runUntilTick(_stopAt + drain);
}

void
FlightApp::startStaffDriver(sim::Rng &rng)
{
    if (_cfg.staffReadRate <= 0)
        return;
    // Staff front-end: background async reads of Airport records
    // (keys drawn over the citizen id space).  @p rng is the classic interleaved stream in
    // closed-loop mode and the staff-owned stream in storm mode.
    struct StaffDriver
    {
        FlightApp *app;
        sim::Rng *rng;
        void
        operator()() const
        {
            FlightApp *a = app;
            sim::Rng *r = rng;
            sim::EventQueue &eq = a->_sys.eq();
            if (eq.now() >= a->_stopAt)
                return;
            const double mean_gap_us = 1e6 / a->_cfg.staffReadRate;
            eq.schedule(
                sim::usToTicks(r->exponential(mean_gap_us)),
                [a, r] {
                    if (a->_sys.eq().now() >= a->_stopAt)
                        return;
                    const std::uint64_t pid = 1 + r->range(kCitizens);
                    a->_staffKvs->get(app::HexKey(pid),
                                      [a](bool, std::string_view) {
                                          ++a->_staffReads;
                                      });
                    StaffDriver{a, r}();
                });
        }
    };
    StaffDriver{this, &rng}();
}

void
FlightApp::runStorm(const FlightStormSpec &spec)
{
    dagger_assert(spec.offeredRps > 0, "offered load must be positive");
    dagger_assert(!_storm, "runStorm called twice");
    // Storm mode gives each consumer its own draw stream: flight
    // costs, staff traffic, and arrivals (the generator's).
    _costRng = &_flightRng;
    _stopAt = _sys.now() + spec.duration;
    if (spec.passengerRetry.enabled())
        _passengerClient->setRetryPolicy(spec.passengerRetry);

    _storm = std::make_unique<app::OpenLoopGen>(_sys.eq(),
                                                _cfg.seed ^ 0x73746f726dull);
    app::TenantSpec tenant;
    tenant.name = "passengers";
    tenant.clients = spec.clients;
    tenant.cohorts = spec.cohorts;
    tenant.perClientRps =
        spec.offeredRps / static_cast<double>(spec.clients);
    tenant.diurnal = spec.diurnal;
    // Registration ids are monotonic, not Zipf-keyed: keep the unused
    // per-cohort key machinery tiny (zeta init is O(keySpace)).
    tenant.keySpace = 1024;
    _storm->addTenant(tenant);
    _storm->start(_stopAt, [this](const app::OpenLoopCall &) {
        issuePassenger(_sys.eq().now());
    });
    startStaffDriver(_staffRng);

    _sys.runUntilTick(_stopAt + spec.drain);
}

Tracer &
FlightApp::tracer()
{
    _tracer = Tracer();
    for (Tier *t : {_checkin.get(), _flight.get(), _baggage.get(),
                    _passport.get(), _airport.get(), _citizens.get()})
        for (const auto &[name, hist] : t->tracer().all())
            _tracer.span(name).merge(hist);
    return _tracer;
}

} // namespace dagger::svc
