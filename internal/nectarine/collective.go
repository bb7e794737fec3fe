package nectarine

import (
	"fmt"

	"repro/internal/coll"
)

// Collective is a collective-communication group over CAB-resident tasks
// of one application: the Nectarine face of internal/coll. Build one with
// App.NewCollective, then drive the operations from the member tasks'
// bodies — like every collective subsystem, the calls are SPMD: every
// member task must invoke the same sequence of operations.
type Collective struct {
	g     *coll.Group
	ranks map[string]int // member task name -> canonical rank
}

// NewCollective declares collective group id over the named CAB-resident
// tasks (see coll.NewGroup for the id space and rank rules). Options pass
// through to the underlying group (e.g. coll.WithAlgorithm). Node-resident
// tasks cannot join: collectives are executed by CAB kernel threads.
func (a *App) NewCollective(id int, taskNames []string, opts ...coll.Option) *Collective {
	cabs := make([]int, len(taskNames))
	for i, name := range taskNames {
		t := a.tasks[name]
		if t == nil {
			panic(fmt.Sprintf("nectarine: collective over unknown task %q", name))
		}
		if t.stack == nil {
			panic(fmt.Sprintf("nectarine: task %q is node-resident; collectives need CAB tasks", name))
		}
		cabs[i] = t.cabID
	}
	g := coll.NewGroup(a.sys, id, cabs, opts...)
	cl := &Collective{g: g, ranks: make(map[string]int, len(taskNames))}
	for i, name := range taskNames {
		cl.ranks[name] = g.RankOf(i)
	}
	return cl
}

// Size returns the number of member tasks.
func (cl *Collective) Size() int { return cl.g.Size() }

// RankOf returns the canonical rank of a member task (-1 if not a member).
func (cl *Collective) RankOf(taskName string) int {
	if r, ok := cl.ranks[taskName]; ok {
		return r
	}
	return -1
}

// comm resolves the calling task's endpoint, panicking on misuse (calls
// from a non-member or node task are programming errors, like Nectarine's
// other misuse panics).
func (cl *Collective) comm(tc *TaskCtx) *coll.Comm {
	r, ok := cl.ranks[tc.Name()]
	if !ok {
		panic(fmt.Sprintf("nectarine: task %q is not a member of this collective", tc.Name()))
	}
	return cl.g.Member(r)
}

// Rank returns the calling task's rank in the collective.
func (cl *Collective) Rank(tc *TaskCtx) int { return cl.comm(tc).Rank() }

// Barrier blocks until every member task has entered it.
func (cl *Collective) Barrier(tc *TaskCtx) error {
	return cl.comm(tc).Barrier(tc.Thread())
}

// Bcast delivers rootTask's data to every member and returns it.
func (cl *Collective) Bcast(tc *TaskCtx, rootTask string, data []byte) ([]byte, error) {
	return cl.comm(tc).Bcast(tc.Thread(), cl.mustRank(rootTask), data)
}

// Reduce folds every member's data with op at rootTask (others get nil).
func (cl *Collective) Reduce(tc *TaskCtx, rootTask string, op coll.Op, data []byte) ([]byte, error) {
	return cl.comm(tc).Reduce(tc.Thread(), cl.mustRank(rootTask), op, data)
}

// Allreduce folds every member's data with op at every member.
func (cl *Collective) Allreduce(tc *TaskCtx, op coll.Op, data []byte) ([]byte, error) {
	return cl.comm(tc).Allreduce(tc.Thread(), op, data)
}

// Gather collects every member's payload at rootTask, rank-indexed.
func (cl *Collective) Gather(tc *TaskCtx, rootTask string, data []byte) ([][]byte, error) {
	return cl.comm(tc).Gather(tc.Thread(), cl.mustRank(rootTask), data)
}

// Scatter distributes rootTask's rank-indexed parts.
func (cl *Collective) Scatter(tc *TaskCtx, rootTask string, parts [][]byte) ([]byte, error) {
	return cl.comm(tc).Scatter(tc.Thread(), cl.mustRank(rootTask), parts)
}

// Alltoall performs the personalized all-to-all exchange (rank-indexed).
func (cl *Collective) Alltoall(tc *TaskCtx, parts [][]byte) ([][]byte, error) {
	return cl.comm(tc).Alltoall(tc.Thread(), parts)
}

// Allgather collects every member's payload at every member, rank-indexed.
func (cl *Collective) Allgather(tc *TaskCtx, data []byte) ([][]byte, error) {
	return cl.comm(tc).Allgather(tc.Thread(), data)
}

func (cl *Collective) mustRank(taskName string) int {
	r := cl.RankOf(taskName)
	if r < 0 {
		panic(fmt.Sprintf("nectarine: task %q is not a member of this collective", taskName))
	}
	return r
}
