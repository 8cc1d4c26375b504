package service

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// progNames are the five served benchmarks.
var progNames = []string{"052.alvinn", "dijkstra", "blackscholes", "swaptions", "enc-md5"}

// waitDone blocks until j is terminal (bounded).
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s never finished", j.ID)
	}
}

// soloReference runs one job per program on an otherwise idle service and
// returns the per-program (ret, output) the concurrent runs must reproduce.
func soloReference(t *testing.T, s *Service) map[string]JobView {
	t.Helper()
	refs := map[string]JobView{}
	for _, name := range progNames {
		j, err := s.Submit("reference", name, "train")
		if err != nil {
			t.Fatalf("solo %s: %v", name, err)
		}
		waitDone(t, j)
		v := s.View(j)
		if v.State != StateDone {
			t.Fatalf("solo %s: %s (%s)", name, v.State, v.Error)
		}
		refs[name] = v
	}
	return refs
}

// TestConcurrentTenantsBitIdentical is the ISSUE's hammer: >= 32 concurrent
// invocations of different programs over one shared Program cache and
// warmed worker pool, every tenant's output byte-identical to a solo run
// and no cross-tenant stats bleed. Run under -race in CI.
func TestConcurrentTenantsBitIdentical(t *testing.T) {
	s := New(Config{Workers: 3, Concurrency: 8, QueueDepth: 64})
	defer s.Drain()
	refs := soloReference(t, s)

	// 8 tenants x 5 programs = 40 concurrent invocations; each tenant
	// runs every program once so any cross-tenant mixup is visible as a
	// wrong output.
	type sub struct {
		tenant string
		prog   string
		job    *Job
	}
	var subs []sub
	for ten := 0; ten < 8; ten++ {
		for _, name := range progNames {
			tenant := fmt.Sprintf("tenant-%d", ten)
			j, err := s.Submit(tenant, name, "train")
			if err != nil {
				t.Fatalf("submit %s/%s: %v", tenant, name, err)
			}
			subs = append(subs, sub{tenant, name, j})
		}
	}
	for _, sb := range subs {
		waitDone(t, sb.job)
		v := s.View(sb.job)
		if v.State != StateDone {
			t.Fatalf("%s/%s: state %s (%s)", sb.tenant, sb.prog, v.State, v.Error)
		}
		ref := refs[sb.prog]
		if v.Ret != ref.Ret || v.Output != ref.Output {
			t.Errorf("%s/%s: output diverged from solo run (ret %d vs %d)",
				sb.tenant, sb.prog, v.Ret, ref.Ret)
		}
		// Tracing is on by default; every job under the hammer must still
		// carry a usable trace (outputs above prove it changed nothing).
		if events, ok := s.Trace(sb.job.ID); !ok || len(events) == 0 {
			t.Errorf("%s/%s: no trace recorded under concurrency", sb.tenant, sb.prog)
		} else if len(v.PhaseNS) == 0 {
			t.Errorf("%s/%s: empty phase breakdown", sb.tenant, sb.prog)
		}
	}

	// No cross-tenant stats bleed: each tenant's accounting shows exactly
	// its own five jobs, all completed, none inflight.
	sn := s.Snapshot()
	for ten := 0; ten < 8; ten++ {
		tc, ok := sn.Tenants[fmt.Sprintf("tenant-%d", ten)]
		if !ok {
			t.Fatalf("tenant-%d missing from snapshot", ten)
		}
		if tc.Submitted != 5 || tc.Completed != 5 || tc.Failed != 0 || tc.Inflight != 0 {
			t.Errorf("tenant-%d counts bled: %+v", ten, tc)
		}
	}

	// The warmed pool must actually have been reused across invocations.
	var reuses int64
	for _, pv := range sn.Programs {
		reuses += pv.Pool.Reuses
	}
	if reuses == 0 {
		t.Error("no warmed-pool reuse across 45 invocations")
	}
}

// waitRunning polls until j has left the queue.
func waitRunning(t *testing.T, s *Service, j *Job) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for s.View(j).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain: the in-flight invocation completes, still-queued jobs
// fail with ErrDraining, and later submissions are refused.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 1, QueueDepth: 16})
	// Pin the first job in flight so the queue behind it is deterministic.
	hold := make(chan struct{})
	s.holdRunner = hold
	first, err := s.Submit("t0", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, first)
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit("t0", "dijkstra", "train")
		if err != nil {
			t.Fatalf("queued %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	deadline := time.Now().Add(time.Minute)
	for !s.Snapshot().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	select {
	case <-drained:
	case <-time.After(time.Minute):
		t.Fatal("drain never completed")
	}

	if v := s.View(first); v.State != StateDone {
		t.Fatalf("in-flight job did not complete: %s (%s)", v.State, v.Error)
	}
	for i, j := range queued {
		v := s.View(j)
		if v.State != StateFailed || v.Error != ErrDraining.Error() {
			t.Fatalf("queued job %d: state %s error %q, want drain rejection", i, v.State, v.Error)
		}
	}
	if _, err := s.Submit("t0", "dijkstra", "train"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	sn := s.Snapshot()
	if !sn.Draining {
		t.Fatal("snapshot does not report draining")
	}
}

// TestAdmissionControl covers the typed rejections: unknown programs,
// per-tenant quotas, and queue-full backpressure, and that rejections
// retain no tenant state.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 2, Concurrency: 1, QueueDepth: 1, TenantInflight: 2})
	hold := make(chan struct{})
	s.holdRunner = hold
	defer func() {
		close(hold)
		s.Drain()
	}()

	var unknown *UnknownProgramError
	if _, err := s.Submit("t", "no-such-prog", "train"); !errors.As(err, &unknown) {
		t.Fatalf("unknown program: %v", err)
	}
	if _, err := s.Submit("t", "dijkstra", "no-such-input"); !errors.As(err, &unknown) {
		t.Fatalf("unknown input: %v", err)
	}

	// Fill the tenant's quota: one pinned in flight plus one queued. Wait
	// for the runner to pick up the first job so the second lands in the
	// (depth-1) queue, not a race.
	busy, err := s.Submit("quota-tenant", "dijkstra", "train")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, busy)
	if _, err := s.Submit("quota-tenant", "dijkstra", "train"); err != nil {
		t.Fatal(err)
	}
	var quota *QuotaError
	if _, err := s.Submit("quota-tenant", "dijkstra", "train"); !errors.As(err, &quota) {
		t.Fatalf("over-quota submit: %v", err)
	}
	// Another tenant is admitted on its own quota — but the queue (depth
	// 1) already holds the first tenant's waiting job.
	var full *QueueFullError
	if _, err := s.Submit("other-tenant", "dijkstra", "train"); !errors.As(err, &full) {
		t.Fatalf("queue-full submit: %v", err)
	}
	// A tenant whose every submission was rejected leaves no entry behind,
	// so rejections under ever-new names cannot grow the tenant map.
	if _, ok := s.Snapshot().Tenants["other-tenant"]; ok {
		t.Fatal("rejected tenant retained in the tenant map")
	}
}
