package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idlog/internal/core"
	"idlog/internal/relation"
)

// metrics is idlogd's observability state. Everything on the request
// path is an atomic add (or, for per-predicate and per-status rows, a
// lock-free sync.Map upsert), so instrumentation costs nanoseconds per
// request and nothing at all when /metrics is never scraped — text
// rendering happens only at scrape time.
type metrics struct {
	start time.Time

	endpoints map[string]*endpointMetrics

	tuplesTotal       atomic.Uint64
	derivationsTotal  atomic.Uint64
	scannedTotal      atomic.Uint64
	admissionRejected atomic.Uint64
	sessionsEvicted   atomic.Uint64

	// Prepared-query registry counters: goal queries served by a cached
	// PreparedQuery (skipping parse+compile+plan) vs. ones that had to
	// prepare.
	planCacheHits   atomic.Uint64
	magicQueries    atomic.Uint64
	planCacheMisses atomic.Uint64

	// Mutation-path counters: effective EDB changes acknowledged, DRed
	// rederivations across live-view maintenance, view rebuilds after
	// failed incremental updates, and WAL activity.
	factsInserted       atomic.Uint64
	factsDeleted        atomic.Uint64
	factsRederived      atomic.Uint64
	viewRebuilds        atomic.Uint64
	walAppends          atomic.Uint64
	walCheckpoints      atomic.Uint64
	walCheckpointErrors atomic.Uint64
	walDegradedEvents   atomic.Uint64

	// Replication counters: records applied on a follower, records
	// shipped out of a primary's stream, snapshots served, wholesale
	// resyncs performed, and the live stream gauge.
	replApplied   atomic.Uint64
	replShipped   atomic.Uint64
	replSnapshots atomic.Uint64
	replResyncs   atomic.Uint64
	replStreams   atomic.Int64

	// predicates maps predicate name -> *predStats.
	predicates sync.Map
}

// predStats are per-predicate evaluation counters: how often the
// predicate was asked for and how many result tuples it produced.
type predStats struct {
	queries atomic.Uint64
	tuples  atomic.Uint64
}

// latencyBuckets are the histogram upper bounds in seconds;
// numBuckets counts them.
const numBuckets = 6

var latencyBuckets = [numBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// endpointMetrics instruments one endpoint: a fixed-bucket latency
// histogram plus per-status-code request counters.
type endpointMetrics struct {
	name     string
	buckets  [numBuckets]atomic.Uint64 // observations at or under each bound
	count    atomic.Uint64
	sumNanos atomic.Uint64
	// byStatus maps int status -> *atomic.Uint64.
	byStatus sync.Map
}

// endpointNames is the fixed instrumentation universe; requests
// outside it (404 paths) land on "other".
var endpointNames = []string{"programs", "query", "sample", "sessions", "facts", "views", "replication", "healthz", "readyz", "metrics", "other"}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics, len(endpointNames))}
	for _, n := range endpointNames {
		m.endpoints[n] = &endpointMetrics{name: n}
	}
	return m
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, status int, elapsed time.Duration) {
	e, ok := m.endpoints[endpoint]
	if !ok {
		e = m.endpoints["other"]
	}
	secs := elapsed.Seconds()
	for i, ub := range latencyBuckets {
		if secs <= ub {
			e.buckets[i].Add(1)
			break
		}
	}
	e.count.Add(1)
	e.sumNanos.Add(uint64(elapsed.Nanoseconds()))
	c, ok := e.byStatus.Load(status)
	if !ok {
		c, _ = e.byStatus.LoadOrStore(status, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
}

// observeEval accumulates one evaluation's engine counters.
func (m *metrics) observeEval(derivations, inserted, scanned int) {
	m.derivationsTotal.Add(uint64(derivations))
	m.tuplesTotal.Add(uint64(inserted))
	m.scannedTotal.Add(uint64(scanned))
}

// observePredicate records that a predicate was served with n tuples.
func (m *metrics) observePredicate(pred string, n int) {
	p, ok := m.predicates.Load(pred)
	if !ok {
		p, _ = m.predicates.LoadOrStore(pred, &predStats{})
	}
	ps := p.(*predStats)
	ps.queries.Add(1)
	ps.tuples.Add(uint64(n))
}

// render writes the Prometheus text exposition format. gauges carries
// point-in-time values owned by the server (inflight, queue, session
// count).
func (m *metrics) render(b *strings.Builder, gauges map[string]float64) {
	header := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	header("idlogd_uptime_seconds", "Seconds since the server started.", "gauge")
	fmt.Fprintf(b, "idlogd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		header(n, "Point-in-time server gauge.", "gauge")
		fmt.Fprintf(b, "%s %g\n", n, gauges[n])
	}

	header("idlogd_requests_total", "Requests served, by endpoint and HTTP status.", "counter")
	for _, en := range endpointNames {
		e := m.endpoints[en]
		type row struct {
			status int
			n      uint64
		}
		var rows []row
		e.byStatus.Range(func(k, v any) bool {
			rows = append(rows, row{k.(int), v.(*atomic.Uint64).Load()})
			return true
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].status < rows[j].status })
		for _, r := range rows {
			fmt.Fprintf(b, "idlogd_requests_total{endpoint=%q,code=\"%d\"} %d\n", en, r.status, r.n)
		}
	}

	header("idlogd_request_duration_seconds", "Request latency.", "histogram")
	for _, en := range endpointNames {
		e := m.endpoints[en]
		count := e.count.Load()
		if count == 0 {
			continue
		}
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += e.buckets[i].Load()
			fmt.Fprintf(b, "idlogd_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", en, ub, cum)
		}
		fmt.Fprintf(b, "idlogd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", en, count)
		fmt.Fprintf(b, "idlogd_request_duration_seconds_sum{endpoint=%q} %.6f\n", en, float64(e.sumNanos.Load())/1e9)
		fmt.Fprintf(b, "idlogd_request_duration_seconds_count{endpoint=%q} %d\n", en, count)
	}

	counter := func(name, help string, v uint64) {
		header(name, help, "counter")
		fmt.Fprintf(b, "%s %d\n", name, v)
	}
	counter("idlogd_derivations_total", "Body instantiations across all evaluations.", m.derivationsTotal.Load())
	counter("idlogd_tuples_total", "Tuples materialized across all evaluations.", m.tuplesTotal.Load())
	counter("idlogd_tuples_scanned_total", "Tuples scanned while matching body literals.", m.scannedTotal.Load())
	counter("idlogd_admission_rejected_total", "Requests rejected by admission control.", m.admissionRejected.Load())
	counter("idlogd_sessions_evicted_total", "Sessions evicted after idling past the TTL.", m.sessionsEvicted.Load())
	counter("idlogd_plan_cache_hits_total", "Goal queries served by a cached prepared query (parse, compile, and planning skipped).", m.planCacheHits.Load())
	counter("idlogd_magic_queries_total", "Goal queries evaluated through the magic-sets demand rewrite.", m.magicQueries.Load())
	counter("idlogd_plan_cache_misses_total", "Goal queries that prepared (and cached) their query fresh.", m.planCacheMisses.Load())
	counter("idlogd_facts_inserted_total", "EDB tuples inserted by acknowledged mutations.", m.factsInserted.Load())
	counter("idlogd_facts_deleted_total", "EDB tuples deleted by acknowledged mutations.", m.factsDeleted.Load())
	counter("idlogd_facts_rederived_total", "Tuples rederived by DRed during live-view maintenance.", m.factsRederived.Load())
	counter("idlogd_view_rebuilds_total", "Live views rebuilt after a failed incremental update.", m.viewRebuilds.Load())
	counter("idlogd_wal_appends_total", "Mutation records appended to the write-ahead log.", m.walAppends.Load())
	counter("idlogd_wal_checkpoints_total", "Checkpoint-and-truncate cycles completed.", m.walCheckpoints.Load())
	counter("idlogd_wal_checkpoint_errors_total", "Checkpoint attempts that failed (retried on the next mutation).", m.walCheckpointErrors.Load())
	counter("idlogd_wal_degraded_events_total", "Times the WAL flipped into degraded (read-only) mode.", m.walDegradedEvents.Load())
	counter("idlogd_replication_applied_total", "Replicated records applied by this server as a follower.", m.replApplied.Load())
	counter("idlogd_replication_shipped_total", "Records shipped to followers over replication streams.", m.replShipped.Load())
	counter("idlogd_replication_snapshots_total", "Snapshot bootstraps served to followers.", m.replSnapshots.Load())
	counter("idlogd_replication_resyncs_total", "Wholesale snapshot resyncs performed by this server as a follower.", m.replResyncs.Load())

	// Process-global engine counters (not per-server): join-planner
	// activity and tuple-store hash-collision health.
	counter("idlogd_plan_reorders_total", "Clause bodies the cost-based join planner reordered away from the analysis order.", core.PlanReordersTotal())
	primCol, secCol := relation.CollisionCounts()
	counter("idlogd_tuple_store_primary_collisions_total", "64-bit hash collisions observed in relation primary tables.", primCol)
	counter("idlogd_tuple_store_secondary_collisions_total", "64-bit hash collisions observed in secondary index buckets.", secCol)

	type prow struct {
		pred            string
		queries, tuples uint64
	}
	var prows []prow
	m.predicates.Range(func(k, v any) bool {
		ps := v.(*predStats)
		prows = append(prows, prow{k.(string), ps.queries.Load(), ps.tuples.Load()})
		return true
	})
	sort.Slice(prows, func(i, j int) bool { return prows[i].pred < prows[j].pred })
	header("idlogd_predicate_queries_total", "Times each predicate was served.", "counter")
	for _, r := range prows {
		fmt.Fprintf(b, "idlogd_predicate_queries_total{predicate=%q} %d\n", r.pred, r.queries)
	}
	header("idlogd_predicate_tuples_total", "Result tuples served per predicate.", "counter")
	for _, r := range prows {
		fmt.Fprintf(b, "idlogd_predicate_tuples_total{predicate=%q} %d\n", r.pred, r.tuples)
	}
}
