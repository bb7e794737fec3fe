package apps

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Distributed transactions in the style of Camelot (paper §7: "the high
// bandwidth and low latency provided by Nectar also make it an attractive
// architecture for communication-intensive distributed applications.
// Examples of such applications include distributed transaction systems,
// such as Camelot... In these applications, the CAB will play a critical
// role as an operating system co-processor").
//
// The implementation is a working two-phase-commit system over the
// request-response transport: resource managers keep real key-value state
// with per-transaction write sets; a coordinator runs PREPARE/COMMIT (or
// ABORT) rounds; prepared-but-uncommitted keys are locked, conflicting
// transactions abort. The experiment measures commit latency — dominated
// by request-response round trips, which is exactly where Nectar's low
// latency pays.

// TxnConfig parameterizes the transaction workload.
type TxnConfig struct {
	// Managers is the number of resource-manager CABs.
	Managers int
	// Transactions to run.
	Transactions int
	// KeysPerTxn written by each transaction (spread over managers).
	KeysPerTxn int
	// PrepareCost / CommitCost are the managers' local costs (log force,
	// state update).
	PrepareCost sim.Time
	CommitCost  sim.Time
}

// DefaultTxnConfig returns a modest OLTP-ish workload.
func DefaultTxnConfig() TxnConfig {
	return TxnConfig{
		Managers:     3,
		Transactions: 40,
		KeysPerTxn:   3,
		PrepareCost:  300 * sim.Microsecond, // stable-storage log force
		CommitCost:   100 * sim.Microsecond,
	}
}

// TxnResult summarizes a run.
type TxnResult struct {
	Committed, Aborted int
	CommitLatency      *trace.Histogram
	Elapsed            sim.Time
}

// Transaction message verbs (first payload byte).
const (
	txnPrepare = 1
	txnCommit  = 2
	txnAbort   = 3
	txnVoteYes = 4
	txnVoteNo  = 5
	txnAck     = 6
)

// txnMsg encodes verb | txnID u32 | key u32 | value u32.
func txnMsg(verb byte, txn, key, val uint32) []byte {
	b := make([]byte, 13)
	b[0] = verb
	binary.BigEndian.PutUint32(b[1:], txn)
	binary.BigEndian.PutUint32(b[5:], key)
	binary.BigEndian.PutUint32(b[9:], val)
	return b
}

// RunTransactions runs the coordinator on CAB 0 and managers on CABs
// 1..Managers, executing Transactions two-phase commits.
func RunTransactions(sys *core.System, cfg TxnConfig) (*TxnResult, error) {
	if sys.NumCABs() < 1+cfg.Managers {
		return nil, fmt.Errorf("apps: transactions need %d CABs, have %d", 1+cfg.Managers, sys.NumCABs())
	}
	res := &TxnResult{CommitLatency: trace.NewHistogram("commit-latency")}

	const serverBox = 20

	// Resource managers: a key-value store with prepared-write locks.
	for m := 0; m < cfg.Managers; m++ {
		st := sys.CAB(1 + m)
		mb := st.Kernel.NewMailbox("rm", 1<<20)
		st.TP.Register(serverBox, mb)
		st.Kernel.SpawnDaemon("rm", func(th *kernel.Thread) {
			store := make(map[uint32]uint32)
			locks := make(map[uint32]uint32)         // key -> txn holding the prepare lock
			prepared := make(map[uint32][][2]uint32) // txn -> prepared writes
			for {
				req := mb.Get(th)
				b := req.Bytes()
				verb := b[0]
				txn := binary.BigEndian.Uint32(b[1:])
				key := binary.BigEndian.Uint32(b[5:])
				val := binary.BigEndian.Uint32(b[9:])
				switch verb {
				case txnPrepare:
					th.Compute(cfg.PrepareCost)
					holder, locked := locks[key]
					if locked && holder != txn {
						st.TP.Respond(th, req, txnMsg(txnVoteNo, txn, key, 0))
					} else {
						locks[key] = txn
						prepared[txn] = append(prepared[txn], [2]uint32{key, val})
						st.TP.Respond(th, req, txnMsg(txnVoteYes, txn, key, 0))
					}
				case txnCommit:
					th.Compute(cfg.CommitCost)
					for _, kv := range prepared[txn] {
						store[kv[0]] = kv[1]
						delete(locks, kv[0])
					}
					delete(prepared, txn)
					st.TP.Respond(th, req, txnMsg(txnAck, txn, 0, 0))
				case txnAbort:
					for _, kv := range prepared[txn] {
						delete(locks, kv[0])
					}
					delete(prepared, txn)
					st.TP.Respond(th, req, txnMsg(txnAck, txn, 0, 0))
				}
				mb.Release(req)
			}
		})
	}

	// Coordinator: runs each transaction's 2PC. A second "interferer"
	// coordinator thread creates lock conflicts so the abort path is
	// exercised.
	coord := sys.CAB(0)
	runTxn := func(th *kernel.Thread, txn uint32, keys []uint32) bool {
		start := th.Proc().Now()
		// Phase 1: prepare every write at its manager.
		allYes := true
		for i, key := range keys {
			mgr := 1 + int(key)%cfg.Managers
			resp, err := coord.TP.Request(th, mgr, serverBox, 2, txnMsg(txnPrepare, txn, key, txn*100+uint32(i)))
			if err != nil || len(resp) == 0 || resp[0] != txnVoteYes {
				allYes = false
				break
			}
		}
		// Phase 2: commit or abort everywhere the txn touched.
		verb := byte(txnCommit)
		if !allYes {
			verb = txnAbort
		}
		seen := map[int]bool{}
		for _, key := range keys {
			mgr := 1 + int(key)%cfg.Managers
			if seen[mgr] {
				continue
			}
			seen[mgr] = true
			coord.TP.Request(th, mgr, serverBox, 2, txnMsg(verb, txn, 0, 0))
		}
		if allYes {
			res.CommitLatency.Add(th.Proc().Now() - start)
			res.Committed++
			return true
		}
		res.Aborted++
		return false
	}

	coord.Kernel.Spawn("coordinator", func(th *kernel.Thread) {
		start := th.Proc().Now()
		state := uint32(7)
		next := func(m uint32) uint32 {
			state = state*1664525 + 1013904223
			return (state >> 16) % m
		}
		for i := 0; i < cfg.Transactions; i++ {
			keys := make([]uint32, cfg.KeysPerTxn)
			for k := range keys {
				keys[k] = next(64)
			}
			runTxn(th, uint32(1000+i), keys)
		}
		res.Elapsed = th.Proc().Now() - start
	})

	sys.Run()
	return res, nil
}
