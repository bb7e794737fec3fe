package nectarine_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/nectarine"
	"repro/internal/node"
	"repro/internal/sim"
)

func TestCABTaskMessaging(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	app := nectarine.NewApp(sys)
	var got nectarine.Message
	app.NewCABTask("consumer", 1, func(tc *nectarine.TaskCtx) {
		got = tc.Recv()
	})
	app.NewCABTask("producer", 0, func(tc *nectarine.TaskCtx) {
		if err := tc.Send("consumer", 7, nectarine.Bytes([]byte("hello"))); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	app.Run()
	if got.From != "producer" || got.Tag != 7 || string(got.Data) != "hello" {
		t.Fatalf("got %+v", got)
	}
}

func TestNodeTaskMessaging(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	nA := node.New(sys.CAB(0), "nodeA", node.DefaultParams())
	nB := node.New(sys.CAB(1), "nodeB", node.DefaultParams())
	app := nectarine.NewApp(sys)
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got nectarine.Message
	app.NewNodeTask("sink", nB, func(tc *nectarine.TaskCtx) {
		got = tc.Recv()
	})
	app.NewNodeTask("source", nA, func(tc *nectarine.TaskCtx) {
		tc.Send("sink", 1, nectarine.Bytes(payload))
	})
	app.Run()
	if !bytes.Equal(got.Data, payload) {
		t.Fatalf("node task message corrupted (%d bytes)", len(got.Data))
	}
}

func TestMixedCABAndNodeTasks(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	nB := node.New(sys.CAB(1), "nodeB", node.DefaultParams())
	app := nectarine.NewApp(sys)
	var fromCAB, fromNode string
	app.NewNodeTask("on-node", nB, func(tc *nectarine.TaskCtx) {
		m := tc.Recv()
		fromCAB = string(m.Data)
		tc.Send("on-cab", 2, nectarine.Bytes([]byte("node->cab")))
	})
	app.NewCABTask("on-cab", 0, func(tc *nectarine.TaskCtx) {
		tc.Send("on-node", 1, nectarine.Bytes([]byte("cab->node")))
		m := tc.Recv()
		fromNode = string(m.Data)
	})
	app.Run()
	if fromCAB != "cab->node" || fromNode != "node->cab" {
		t.Fatalf("fromCAB=%q fromNode=%q", fromCAB, fromNode)
	}
}

func TestHeterogeneousWordConversion(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	app := nectarine.NewApp(sys)
	// The sender is a little-endian Warp, the receiver a big-endian Sun.
	app.SetMachine(0, nectarine.Warp)
	app.SetMachine(1, nectarine.Sun4)
	vals := []uint32{1, 0xDEADBEEF, 42, 1 << 30}
	var got []uint32
	app.NewCABTask("sun", 1, func(tc *nectarine.TaskCtx) {
		m := tc.Recv()
		if !m.Words {
			t.Error("typed buffer lost its Words flag")
		}
		got = nectarine.DecodeWords(m.Data, true) // receiver's order
	})
	app.NewCABTask("warp", 0, func(tc *nectarine.TaskCtx) {
		tc.Send("sun", 0, nectarine.Words(vals, false)) // sender's order
	})
	app.Run()
	if len(got) != len(vals) {
		t.Fatalf("got %d words", len(got))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("word %d: %#x, want %#x (conversion broken)", i, got[i], vals[i])
		}
	}
}

func TestSameEndianNoConversion(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	app := nectarine.NewApp(sys)
	app.SetMachine(0, nectarine.Sun3)
	app.SetMachine(1, nectarine.Sun4)
	vals := []uint32{7, 8, 9}
	var got []uint32
	app.NewCABTask("rx", 1, func(tc *nectarine.TaskCtx) {
		m := tc.Recv()
		got = nectarine.DecodeWords(m.Data, true)
	})
	app.NewCABTask("tx", 0, func(tc *nectarine.TaskCtx) {
		tc.Send("rx", 0, nectarine.Words(vals, true))
	})
	app.Run()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("word %d: %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestRecvTagOutOfOrder(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	app := nectarine.NewApp(sys)
	var order []uint32
	app.NewCABTask("rx", 1, func(tc *nectarine.TaskCtx) {
		// Wait for tag 3 first, although 1 and 2 arrive before it.
		m := tc.RecvTag(3)
		order = append(order, m.Tag)
		order = append(order, tc.Recv().Tag, tc.Recv().Tag)
	})
	app.NewCABTask("tx", 0, func(tc *nectarine.TaskCtx) {
		for _, tag := range []uint32{1, 2, 3} {
			tc.Send("rx", tag, nectarine.Bytes([]byte{byte(tag)}))
		}
	})
	app.Run()
	if len(order) != 3 || order[0] != 3 {
		t.Fatalf("order %v, want tag 3 first", order)
	}
}

func TestSendToUnknownTask(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	app := nectarine.NewApp(sys)
	var err error
	app.NewCABTask("t", 0, func(tc *nectarine.TaskCtx) {
		err = tc.Send("ghost", 0, nectarine.Bytes(nil))
	})
	app.Run()
	if err == nil {
		t.Fatal("send to unknown task should fail")
	}
}

func TestRecvTimeout(t *testing.T) {
	sys := core.New(core.SingleHub(1))
	app := nectarine.NewApp(sys)
	var ok bool
	app.NewCABTask("t", 0, func(tc *nectarine.TaskCtx) {
		_, ok = tc.RecvTimeout(100 * sim.Microsecond)
	})
	app.Run()
	if ok {
		t.Fatal("RecvTimeout with no sender should time out")
	}
}

func TestTaskFanInOrderPreserved(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	app := nectarine.NewApp(sys)
	byFrom := map[string][]uint32{}
	app.NewCABTask("sink", 0, func(tc *nectarine.TaskCtx) {
		for i := 0; i < 15; i++ {
			m := tc.Recv()
			byFrom[m.From] = append(byFrom[m.From], m.Tag)
		}
	})
	for i := 1; i < 4; i++ {
		name := "src" + string(rune('0'+i))
		app.NewCABTask(name, i, func(tc *nectarine.TaskCtx) {
			for j := uint32(0); j < 5; j++ {
				tc.Send("sink", j, nectarine.Bytes([]byte{byte(j)}))
			}
		})
	}
	app.Run()
	for from, tags := range byFrom {
		if len(tags) != 5 {
			t.Fatalf("%s delivered %d", from, len(tags))
		}
		for j := uint32(0); j < 5; j++ {
			if tags[j] != j {
				t.Fatalf("%s messages reordered: %v", from, tags)
			}
		}
	}
}

func TestGroupMulticast(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	app := nectarine.NewApp(sys)
	got := make([]string, 4)
	var g *nectarine.Group // assigned before Start; bodies run after
	for i := 1; i < 4; i++ {
		i := i
		app.NewCABTask(fmt.Sprintf("member%d", i), i, func(tc *nectarine.TaskCtx) {
			m := tc.Recv()
			got[i] = string(m.Data)
			if m.From != "root" || m.Tag != 9 {
				t.Errorf("member %d: from=%q tag=%d", i, m.From, m.Tag)
			}
		})
	}
	app.NewCABTask("root", 0, func(tc *nectarine.TaskCtx) {
		if err := tc.SendGroup(g, 9, nectarine.Bytes([]byte("fan out"))); err != nil {
			t.Errorf("SendGroup: %v", err)
		}
	})
	g = app.NewGroup("all", "root", "member1", "member2", "member3")
	app.Run()
	for i := 1; i < 4; i++ {
		if got[i] != "fan out" {
			t.Fatalf("member %d got %q", i, got[i])
		}
	}
	// One copy on the sender's fiber, not three.
	if sent := sys.CAB(0).DL.Stats().PacketsSent; sent != 1 {
		t.Fatalf("sender put %d packets on the wire, want 1", sent)
	}
}

func TestGroupValidation(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	app := nectarine.NewApp(sys)
	app.NewCABTask("a", 0, func(tc *nectarine.TaskCtx) {})
	app.NewCABTask("b", 0, func(tc *nectarine.TaskCtx) {}) // same CAB as a
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("unknown member", func() { app.NewGroup("g1", "a", "ghost") })
	mustPanic("co-located members", func() { app.NewGroup("g2", "a", "b") })
	app.Run()
}

func TestTaskCtxSurface(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	nB := node.New(sys.CAB(1), "nodeB", node.DefaultParams())
	app := nectarine.NewApp(sys)
	var cabOK, nodeOK bool
	tk := app.NewCABTask("c", 0, func(tc *nectarine.TaskCtx) {
		before := tc.Now()
		tc.Sleep(100 * sim.Microsecond)
		cabOK = tc.Name() == "c" && tc.Proc() != nil && tc.Now() >= before+100*sim.Microsecond &&
			tc.Machine().Name == "cab"
		// RecvTimeout success path.
		m, ok := tc.RecvTimeout(10 * sim.Millisecond)
		cabOK = cabOK && ok && string(m.Data) == "hi"
	})
	if tk.Name() != "c" {
		t.Fatal("task Name")
	}
	app.NewNodeTask("n", nB, func(tc *nectarine.TaskCtx) {
		before := tc.Now()
		tc.Sleep(50 * sim.Microsecond)
		tc.Compute(20 * sim.Microsecond)
		nodeOK = tc.Now() >= before+70*sim.Microsecond
		tc.Send("c", 1, nectarine.Bytes([]byte("hi")))
		// Node-task RecvTag with an interleaved other-tag message.
		m := tc.RecvTag(7)
		nodeOK = nodeOK && string(m.Data) == "seven"
		m2 := tc.Recv() // the earlier tag-3 message from the pending list
		nodeOK = nodeOK && m2.Tag == 3
	})
	app.NewCABTask("feeder", 0, func(tc *nectarine.TaskCtx) {
		tc.Sleep(sim.Millisecond)
		tc.Send("n", 3, nectarine.Bytes([]byte("three")))
		tc.Send("n", 7, nectarine.Bytes([]byte("seven")))
	})
	app.Run()
	if !cabOK || !nodeOK {
		t.Fatalf("cabOK=%v nodeOK=%v", cabOK, nodeOK)
	}
}

// TestCollective drives the coll subsystem through the Nectarine task
// API: a broadcast from a named root and an allreduce across four tasks.
func TestCollective(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	app := nectarine.NewApp(sys)
	names := []string{"w0", "w1", "w2", "w3"}
	var cl *nectarine.Collective
	sums := make([]int64, 4)
	for i, name := range names {
		i, name := i, name
		app.NewCABTask(name, i, func(tc *nectarine.TaskCtx) {
			if cl.Rank(tc) != cl.RankOf(tc.Name()) {
				t.Errorf("task %s: Rank != RankOf", tc.Name())
			}
			var in []byte
			if tc.Name() == "w2" {
				in = []byte("from-w2")
			}
			got, err := cl.Bcast(tc, "w2", in)
			if err != nil {
				t.Errorf("task %s: bcast: %v", tc.Name(), err)
				return
			}
			if string(got) != "from-w2" {
				t.Errorf("task %s: bcast got %q", tc.Name(), got)
			}
			out, err := cl.Allreduce(tc, coll.SumInt64, coll.Int64Bytes([]int64{int64(i + 1)}))
			if err != nil {
				t.Errorf("task %s: allreduce: %v", tc.Name(), err)
				return
			}
			sums[i] = coll.BytesInt64(out)[0]
			if err := cl.Barrier(tc); err != nil {
				t.Errorf("task %s: barrier: %v", tc.Name(), err)
			}
		})
	}
	cl = app.NewCollective(7, names)
	app.Run()
	for i, s := range sums {
		if s != 10 {
			t.Errorf("task %d: allreduce sum = %d, want 10", i, s)
		}
	}
}

// TestCollectiveDataMovement drives the rest of the collective surface
// through the task API on four CABs: Size, a rooted Reduce, Gather and
// Scatter, and the Alltoall and Allgather exchanges, checking every
// member's result by rank.
func TestCollectiveDataMovement(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	app := nectarine.NewApp(sys)
	names := []string{"w0", "w1", "w2", "w3"}
	var cl *nectarine.Collective
	done := 0
	for i, name := range names {
		app.NewCABTask(name, i, func(tc *nectarine.TaskCtx) {
			if cl.Size() != len(names) {
				t.Errorf("task %s: Size = %d", name, cl.Size())
			}
			me := cl.Rank(tc)
			byRank := func(op string, got [][]byte, want func(r int) string) {
				if len(got) != len(names) {
					t.Errorf("task %s: %s returned %d parts", name, op, len(got))
					return
				}
				for _, n := range names {
					if r := cl.RankOf(n); string(got[r]) != want(r) {
						t.Errorf("task %s: %s part %d = %q, want %q", name, op, r, got[r], want(r))
					}
				}
			}
			nameOf := func(r int) string {
				for _, n := range names {
					if cl.RankOf(n) == r {
						return n
					}
				}
				return ""
			}

			sum, err := cl.Reduce(tc, "w1", coll.SumInt64, coll.Int64Bytes([]int64{int64(i + 1)}))
			switch {
			case err != nil:
				t.Errorf("task %s: reduce: %v", name, err)
			case name == "w1" && coll.BytesInt64(sum)[0] != 10:
				t.Errorf("root reduce = %d, want 10", coll.BytesInt64(sum)[0])
			case name != "w1" && sum != nil:
				t.Errorf("task %s: non-root reduce returned %v", name, sum)
			}

			gathered, err := cl.Gather(tc, "w0", []byte(name))
			switch {
			case err != nil:
				t.Errorf("task %s: gather: %v", name, err)
			case name == "w0":
				byRank("gather", gathered, nameOf)
			case gathered != nil:
				t.Errorf("task %s: non-root gather returned %q", name, gathered)
			}

			var parts [][]byte
			if name == "w3" {
				for r := range names {
					parts = append(parts, []byte(fmt.Sprintf("part%d", r)))
				}
			}
			part, err := cl.Scatter(tc, "w3", parts)
			if want := fmt.Sprintf("part%d", me); err != nil || string(part) != want {
				t.Errorf("task %s: scatter = %q, %v; want %q", name, part, err, want)
			}

			out := make([][]byte, len(names))
			for r := range out {
				out[r] = []byte(fmt.Sprintf("%d>%d", me, r))
			}
			in, err := cl.Alltoall(tc, out)
			if err != nil {
				t.Errorf("task %s: alltoall: %v", name, err)
			} else {
				byRank("alltoall", in, func(r int) string { return fmt.Sprintf("%d>%d", r, me) })
			}

			all, err := cl.Allgather(tc, []byte(name))
			if err != nil {
				t.Errorf("task %s: allgather: %v", name, err)
			} else {
				byRank("allgather", all, nameOf)
			}
			done++
		})
	}
	cl = app.NewCollective(9, names)
	app.Run()
	if done != len(names) {
		t.Fatalf("%d of %d tasks finished", done, len(names))
	}
}
