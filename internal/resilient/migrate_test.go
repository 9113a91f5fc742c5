package resilient

import (
	"errors"
	"testing"
)

func TestMigrateReplicaKeepsServiceAlive(t *testing.T) {
	h := newHarness(t, 6, DefaultConfig(6))
	res := buildEcho(t, h, 1, 20, 100)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Relocate worker 1's replica 0 to node 4 mid-run; later kill the
	// OTHER replica so completion proves the migrated one serves traffic.
	h.x.Schedule(2, func() {
		if err := h.rt.MigrateReplica(1, 0, 4); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	h.x.Schedule(8, func() { h.rt.KillReplica(1, 1) })
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.completed {
		t.Fatal("echo did not complete after migration + kill")
	}
	st := h.rt.Stats()
	if st.Migrations != 1 {
		t.Fatalf("migrations = %d", st.Migrations)
	}
	if res.extra != 0 {
		t.Fatalf("dedupe leaked %d deliveries across migration", res.extra)
	}
}

func TestMigrateValidation(t *testing.T) {
	h := newHarness(t, 4, DefaultConfig(4))
	// Before Start.
	if err := h.rt.MigrateReplica(1, 0, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("migrate before start: %v", err)
	}
	var done bool
	if err := h.rt.Add(mgrLID, "m", []int{0}, false, func(env REnv) error {
		defer h.rt.Shutdown()
		// Unknown group.
		if err := h.rt.MigrateReplica(42, 0, 1); !errors.Is(err, ErrUnknownGroup) {
			t.Errorf("unknown group: %v", err)
		}
		// Bad slot and node.
		if err := h.rt.MigrateReplica(1, 9, 1); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad slot: %v", err)
		}
		if err := h.rt.MigrateReplica(1, 0, 99); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad node: %v", err)
		}
		done = true
		return nil
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Add(1, "worker", []int{1, 2}, true, workerBody, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("validation body did not finish")
	}
}

func TestMigrateDeadReplicaRejected(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Regenerate = false
	h := newHarness(t, 5, cfg)
	var migErr error
	if err := h.rt.Add(mgrLID, "m", []int{0}, false, func(env REnv) error {
		defer h.rt.Shutdown()
		// Kill replica 0, wait for detection, then try to migrate it.
		h.rt.KillReplica(1, 0)
		if _, err := env.RecvTimeout(5); !errors.Is(err, ErrTimeout) {
			return err
		}
		migErr = h.rt.MigrateReplica(1, 0, 3)
		return nil
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Add(1, "worker", []int{1, 2}, true, workerBody, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(migErr, ErrBadConfig) {
		t.Fatalf("migrating a dead replica: %v", migErr)
	}
}
