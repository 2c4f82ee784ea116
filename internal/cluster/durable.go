package cluster

// The coordinator's durable slice is deliberately small. Queued and
// in-flight dispatches die with the process — the service layer re-pushes
// every un-acked task from its own journal, and redelivery mints fresh
// dispatch ids — so what must survive a restart is exactly the token
// arithmetic that keeps pre-crash and post-crash identities distinct:
//
//   - generation tokens: a worker holding a pre-crash (id, gen) must get
//     ErrGone — never a false match against a recycled gen — so its
//     stale results are dropped and it re-registers through the normal
//     supersession path;
//   - dispatch ids: the dedup map is keyed by dispatch id, so a post-crash
//     id colliding with a pre-crash one could mistake a stale delivery's
//     result for a live dispatch's.
//
// Both counters are therefore persisted as *ceilings*: before any id
// below the ceiling is handed out, the ceiling (current + a block) is
// journaled, and a restart resumes from the last persisted ceiling — a
// floor above every id that can possibly have escaped the dead process.
const (
	genBlock      = 64
	dispatchBlock = 4096
)

// RegistryState is the coordinator state a daemon journals: the two id
// ceilings, and nothing else. Registrations are not journaled: a worker
// that outlived the daemon gets ErrGone on its next call to the restarted
// one — no registration matches its (id, gen) — and re-registers under a
// generation above the restored ceiling.
type RegistryState struct {
	NextGen      int64 `json:"next_gen"`
	NextDispatch int64 `json:"next_dispatch"`
}

// SetPersist installs the durability sink: fn is called, under the
// registry lock, with the coordinator's durable state whenever a ceiling
// moves — once per block of ids, not per registration or death. The sink
// must journal the state durably before returning — the ceiling guarantee
// depends on the persist completing before ids under it are handed out.
// Installing the sink immediately persists the current state.
func (co *Coordinator) SetPersist(fn func(RegistryState)) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.persist = fn
	co.persistLocked()
}

// Restore seeds the coordinator's ceilings from journaled state. They
// become floors, never moving a counter backwards. Call it before serving
// any cluster traffic.
func (co *Coordinator) Restore(st RegistryState) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.nextGen = max(co.nextGen, st.NextGen)
	co.genCeiling = max(co.genCeiling, co.nextGen)
	co.nextDispatch = max(co.nextDispatch, st.NextDispatch)
	co.dispatchCeiling = max(co.dispatchCeiling, co.nextDispatch)
	co.reg.Counter("cluster_registry_restores_total").Inc()
}

// persistLocked pushes the durable state to the sink (no-op without one).
func (co *Coordinator) persistLocked() {
	if co.persist != nil {
		co.persist(RegistryState{NextGen: co.genCeiling, NextDispatch: co.dispatchCeiling})
	}
}

// reserveLocked guarantees the id after next (a gen or a dispatch id)
// sits under its persisted ceiling, reserving (and journaling) a fresh
// block when the current one is exhausted.
func (co *Coordinator) reserveLocked(next int64, ceiling *int64, block int64) {
	if co.persist != nil && next+1 > *ceiling {
		*ceiling = next + block
		co.persistLocked()
	}
}
