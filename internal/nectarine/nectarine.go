// Package nectarine implements Nectarine, the Nectar programming interface
// (paper §6.3): "applications consist of tasks that communicate by
// transferring messages between user-specified buffers. Tasks are processes
// on any CAB or node. Messages can be located in any memory. Using
// Nectarine, the programmer can create tasks, manage buffers, and send and
// receive messages."
//
// Nectarine "must accommodate heterogeneous nodes, operating systems,
// memories, attached processors, and other devices": every task location
// has a machine type, and typed (word) buffers are converted between byte
// orders on receipt, with the conversion cost charged to the receiving
// processor. The placement of tasks matters for performance exactly as the
// paper warns: a task on a CAB talks to the network in microseconds; a task
// on a node pays the CAB-node interface costs.
package nectarine

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MachineType describes a node architecture's data representation.
type MachineType struct {
	Name      string
	BigEndian bool
	// ConvertByteTime is the per-byte cost of representation conversion
	// on this machine.
	ConvertByteTime sim.Time
}

// Predefined machine types of the initial Nectar system ("Sun-3s, Sun-4s
// and Warp systems as nodes", §3.2).
var (
	Sun3 = MachineType{Name: "sun3", BigEndian: true, ConvertByteTime: 120 * sim.Nanosecond}
	Sun4 = MachineType{Name: "sun4", BigEndian: true, ConvertByteTime: 60 * sim.Nanosecond}
	Warp = MachineType{Name: "warp", BigEndian: false, ConvertByteTime: 20 * sim.Nanosecond}
	CABm = MachineType{Name: "cab", BigEndian: true, ConvertByteTime: 62 * sim.Nanosecond}
)

// Buffer is a user-specified message buffer. Typed buffers (Words=true)
// carry 32-bit data that needs representation conversion between machines
// of different byte orders; raw buffers are transferred verbatim.
type Buffer struct {
	Data  []byte
	Words bool
}

// Bytes wraps raw data in a buffer.
func Bytes(data []byte) Buffer { return Buffer{Data: data} }

// Words builds a typed buffer from 32-bit values in the sender's byte
// order.
func Words(vals []uint32, bigEndian bool) Buffer {
	data := make([]byte, 4*len(vals))
	for i, v := range vals {
		if bigEndian {
			binary.BigEndian.PutUint32(data[4*i:], v)
		} else {
			binary.LittleEndian.PutUint32(data[4*i:], v)
		}
	}
	return Buffer{Data: data, Words: true}
}

// DecodeWords reads a typed buffer in the given byte order.
func DecodeWords(data []byte, bigEndian bool) []uint32 {
	vals := make([]uint32, len(data)/4)
	for i := range vals {
		if bigEndian {
			vals[i] = binary.BigEndian.Uint32(data[4*i:])
		} else {
			vals[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
	}
	return vals
}

// Message is a received Nectarine message.
type Message struct {
	From    string // sending task name
	Tag     uint32
	Data    []byte // already converted to the receiver's representation
	Words   bool
	Arrived sim.Time
}

// hdr: srcTask u32 | tag u32 | flags u8 (bit0 words, bit1 sender-big-endian)
const hdrSize = 9

// App is one Nectarine application: a set of named tasks placed on CABs and
// nodes of a Nectar system.
type App struct {
	sys   *core.System
	tasks map[string]*Task
	order []*Task

	machines map[int]MachineType // per CAB id; default CABm

	nextBox  uint16
	nextID   uint32
	nextWire uint32
	byID     map[uint32]*Task

	started bool
}

// NewApp creates an empty application on a system.
func NewApp(sys *core.System) *App {
	return &App{
		sys:      sys,
		tasks:    make(map[string]*Task),
		machines: make(map[int]MachineType),
		byID:     make(map[uint32]*Task),
		nextBox:  1000,
	}
}

// SetMachine declares the machine type at a CAB id (the node behind it, or
// the CAB itself for CAB-resident tasks).
func (a *App) SetMachine(cabID int, mt MachineType) { a.machines[cabID] = mt }

// machineAt returns the machine type at a CAB id.
func (a *App) machineAt(cabID int) MachineType {
	if mt, ok := a.machines[cabID]; ok {
		return mt
	}
	return CABm
}

// Task is one Nectarine task.
type Task struct {
	app  *App
	name string
	id   uint32
	box  uint16

	cabID int
	// Exactly one of the following is set: a CAB-resident task runs as a
	// kernel thread with a transport mailbox; a node-resident task runs
	// as a node process using the shared-memory interface.
	stack *core.CABStack
	mb    *kernel.Mailbox
	nd    *node.Node

	body func(tc *TaskCtx)
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// NewCABTask places a task on CAB cabID ("[the CAB] off-loads application
// tasks from nodes whenever appropriate", §3.1).
func (a *App) NewCABTask(name string, cabID int, body func(tc *TaskCtx)) *Task {
	t := a.newTask(name, cabID, body)
	t.stack = a.sys.CAB(cabID)
	t.mb = t.stack.Kernel.NewMailbox("nectarine-"+name, 1024*1024)
	t.stack.TP.Register(t.box, t.mb)
	return t
}

// NewNodeTask places a task on a node; its messages flow through the
// shared-memory CAB-node interface.
func (a *App) NewNodeTask(name string, nd *node.Node, body func(tc *TaskCtx)) *Task {
	t := a.newTask(name, nd.CABID(), body)
	t.nd = nd
	nd.OpenBox(t.box, node.ModeShared, 1024*1024)
	return t
}

func (a *App) newTask(name string, cabID int, body func(tc *TaskCtx)) *Task {
	if a.started {
		panic("nectarine: task created after Start")
	}
	if _, dup := a.tasks[name]; dup {
		panic(fmt.Sprintf("nectarine: duplicate task %q", name))
	}
	a.nextBox++
	a.nextID++
	t := &Task{
		app:   a,
		name:  name,
		id:    a.nextID,
		box:   a.nextBox,
		cabID: cabID,
		body:  body,
	}
	a.tasks[name] = t
	a.order = append(a.order, t)
	a.byID[t.id] = t
	return t
}

// Start launches every task. Call after all tasks are created (so that
// name resolution cannot race task creation).
func (a *App) Start() {
	a.started = true
	for _, t := range a.order {
		t := t
		if t.nd != nil {
			t.nd.Go("task-"+t.name, func(p *sim.Proc) {
				t.body(&TaskCtx{task: t, proc: p})
			})
		} else {
			t.stack.Kernel.Spawn("task-"+t.name, func(th *kernel.Thread) {
				t.body(&TaskCtx{task: t, th: th, proc: th.Proc()})
			})
		}
	}
}

// Run starts the tasks and drives the simulation to completion, returning
// the final simulated time.
func (a *App) Run() sim.Time {
	a.Start()
	return a.sys.Eng.Run()
}

// TaskCtx is the execution context handed to a task body.
type TaskCtx struct {
	task *Task
	th   *kernel.Thread // nil for node tasks
	proc *sim.Proc

	// pending holds messages a node task drained past while waiting for
	// a specific tag (CAB tasks use the mailbox's matching reads). It is a
	// slice, not a FIFO: RecvTag takes messages out of the middle.
	pending []Message
}

// Name returns the running task's name.
func (tc *TaskCtx) Name() string { return tc.task.name }

// Now returns the simulated time.
func (tc *TaskCtx) Now() sim.Time { return tc.proc.Now() }

// Proc exposes the underlying simulation process, for integrating attached
// processors (e.g. a Warp array) that block in virtual time.
func (tc *TaskCtx) Proc() *sim.Proc { return tc.proc }

// Machine returns the machine type the task runs on.
func (tc *TaskCtx) Machine() MachineType { return tc.task.app.machineAt(tc.task.cabID) }

// Thread returns the kernel thread a CAB-resident task runs on (nil for
// node-resident tasks), for driving kernel-level services — notably the
// collective-communication endpoints of internal/coll — from a task body.
func (tc *TaskCtx) Thread() *kernel.Thread { return tc.th }

// CAB returns the CAB id the task is placed on.
func (tc *TaskCtx) CAB() int { return tc.task.cabID }

// Compute charges d of processing on the task's processor.
func (tc *TaskCtx) Compute(d sim.Time) {
	if tc.th != nil {
		tc.th.Compute(d)
	} else {
		tc.task.nd.Compute(tc.proc, d)
	}
}

// Sleep suspends the task for d.
func (tc *TaskCtx) Sleep(d sim.Time) {
	if tc.th != nil {
		tc.th.Sleep(d)
	} else {
		tc.proc.Sleep(d)
	}
}

// Send transfers a buffer to the named task with a tag. Nectarine
// "minimizes the number of copy operations and uses DMA whenever possible":
// CAB-resident tasks hand the buffer to the transport by reference; node
// tasks go through the shared-memory interface.
func (tc *TaskCtx) Send(dstTask string, tag uint32, buf Buffer) error {
	dst, ok := tc.task.app.tasks[dstTask]
	if !ok {
		return fmt.Errorf("nectarine: unknown task %q", dstTask)
	}
	flags := byte(0)
	if buf.Words {
		flags |= 1
	}
	if tc.Machine().BigEndian {
		flags |= 2
	}
	wire := make([]byte, hdrSize+len(buf.Data))
	binary.BigEndian.PutUint32(wire[0:], tc.task.id)
	binary.BigEndian.PutUint32(wire[4:], tag)
	wire[8] = flags
	copy(wire[hdrSize:], buf.Data)

	if tc.th != nil {
		// All task messages travel as single node-layer segments so CAB
		// and node tasks interoperate over one wire format.
		tc.task.app.nextWire++
		framed := node.Frame(tc.task.app.nextWire, wire)
		if tr := tc.task.stack.Kernel.Tracer(); tr != nil {
			sp := tr.Start(nil, trace.LayerApp, tc.task.name, "send:"+dstTask)
			prev := tc.th.SetSpan(sp)
			defer func() { tc.th.SetSpan(prev); sp.End() }()
		}
		return tc.task.stack.TP.StreamSend(tc.th, dst.cabID, dst.box, tc.task.box, framed)
	}
	tc.task.nd.SendSharedWhole(tc.proc, dst.cabID, dst.box, wire)
	return nil
}

// decode converts an incoming wire message for this task's machine,
// charging conversion cost when representations differ.
func (tc *TaskCtx) decode(wire []byte, arrived sim.Time) Message {
	if len(wire) < hdrSize {
		return Message{Arrived: arrived}
	}
	srcID := binary.BigEndian.Uint32(wire[0:])
	tag := binary.BigEndian.Uint32(wire[4:])
	flags := wire[8]
	data := append([]byte(nil), wire[hdrSize:]...)
	words := flags&1 != 0
	senderBig := flags&2 != 0
	me := tc.Machine()
	if words && senderBig != me.BigEndian {
		// Representation conversion: real byte swapping, charged to the
		// receiving processor.
		tc.Compute(sim.Time(len(data)) * me.ConvertByteTime)
		for i := 0; i+3 < len(data); i += 4 {
			data[i], data[i+1], data[i+2], data[i+3] = data[i+3], data[i+2], data[i+1], data[i]
		}
	}
	from := ""
	if t := tc.task.app.byID[srcID]; t != nil {
		from = t.name
	}
	return Message{From: from, Tag: tag, Data: data, Words: words, Arrived: arrived}
}

// Recv blocks until a message arrives for this task.
func (tc *TaskCtx) Recv() Message {
	if len(tc.pending) > 0 {
		m := tc.pending[0]
		tc.pending = slices.Delete(tc.pending, 0, 1)
		return m
	}
	if tc.th != nil {
		msg := tc.task.mb.Get(tc.th)
		wire := msg.Bytes()
		arrived := msg.Arrived
		tc.task.mb.Release(msg)
		inner, err := node.Unframe(wire)
		if err != nil {
			return Message{Arrived: arrived}
		}
		return tc.decode(inner, arrived)
	}
	m := tc.task.nd.RecvShared(tc.proc, tc.task.box)
	return tc.decode(m.Data, m.Arrived)
}

// RecvTag blocks until a message with the given tag arrives (out-of-order
// reads use the mailbox's matching reads on CABs; node tasks buffer).
func (tc *TaskCtx) RecvTag(tag uint32) Message {
	if tc.th != nil {
		msg := tc.task.mb.GetMatch(tc.th, func(m *kernel.Message) bool {
			wire := m.Bytes()
			inner, err := node.Unframe(wire)
			return err == nil && len(inner) >= hdrSize &&
				binary.BigEndian.Uint32(inner[4:]) == tag
		})
		wire := msg.Bytes()
		arrived := msg.Arrived
		tc.task.mb.Release(msg)
		inner, err := node.Unframe(wire)
		if err != nil {
			return Message{Arrived: arrived}
		}
		return tc.decode(inner, arrived)
	}
	// Node task: drain into a local pending list until the tag appears.
	for i, m := range tc.pending {
		if m.Tag == tag {
			tc.pending = slices.Delete(tc.pending, i, i+1)
			return m
		}
	}
	for {
		m := tc.task.nd.RecvShared(tc.proc, tc.task.box)
		msg := tc.decode(m.Data, m.Arrived)
		if msg.Tag == tag {
			return msg
		}
		tc.pending = append(tc.pending, msg)
	}
}

// RecvTimeout is Recv with a deadline (CAB tasks only); ok is false on
// timeout.
func (tc *TaskCtx) RecvTimeout(d sim.Time) (Message, bool) {
	if tc.th == nil {
		panic("nectarine: RecvTimeout requires a CAB-resident task")
	}
	msg, ok := tc.task.mb.GetTimeout(tc.th, d)
	if !ok {
		return Message{}, false
	}
	wire := msg.Bytes()
	arrived := msg.Arrived
	tc.task.mb.Release(msg)
	inner, err := node.Unframe(wire)
	if err != nil {
		return Message{Arrived: arrived}, true
	}
	return tc.decode(inner, arrived), true
}

// Group is a multicast group of CAB-resident tasks: one send puts a single
// copy on the sender's fiber and the crossbar tree fans it out to every
// member (paper §4.2.2). Group delivery is unreliable, like the underlying
// hardware multicast.
type Group struct {
	app     *App
	name    string
	box     uint16
	members []*Task
}

// NewGroup declares a multicast group over previously created CAB tasks.
// Each member's inbox also receives the group's messages. At most one
// member may live on any CAB (the group shares one delivery box per CAB),
// and members must be CAB-resident.
func (a *App) NewGroup(name string, taskNames ...string) *Group {
	if a.started {
		panic("nectarine: group created after Start")
	}
	a.nextBox++
	g := &Group{app: a, name: name, box: a.nextBox}
	seen := map[int]bool{}
	for _, tn := range taskNames {
		t, ok := a.tasks[tn]
		if !ok {
			panic(fmt.Sprintf("nectarine: group %q: unknown task %q", name, tn))
		}
		if t.nd != nil {
			panic(fmt.Sprintf("nectarine: group %q: task %q is node-resident", name, tn))
		}
		if seen[t.cabID] {
			panic(fmt.Sprintf("nectarine: group %q: two members on CAB %d", name, t.cabID))
		}
		seen[t.cabID] = true
		// Group traffic lands in the member's ordinary inbox.
		t.stack.TP.Register(g.box, t.mb)
		g.members = append(g.members, t)
	}
	return g
}

// SendGroup multicasts a buffer to every group member except the sender:
// one copy on the wire, fanned out in the crossbars.
func (tc *TaskCtx) SendGroup(g *Group, tag uint32, buf Buffer) error {
	if tc.th == nil {
		return fmt.Errorf("nectarine: SendGroup requires a CAB-resident sender")
	}
	flags := byte(0)
	if buf.Words {
		flags |= 1
	}
	if tc.Machine().BigEndian {
		flags |= 2
	}
	wire := make([]byte, hdrSize+len(buf.Data))
	binary.BigEndian.PutUint32(wire[0:], tc.task.id)
	binary.BigEndian.PutUint32(wire[4:], tag)
	wire[8] = flags
	copy(wire[hdrSize:], buf.Data)
	tc.task.app.nextWire++
	framed := node.Frame(tc.task.app.nextWire, wire)

	var dsts []int
	for _, m := range g.members {
		if m.cabID != tc.task.cabID {
			dsts = append(dsts, m.cabID)
		}
	}
	if len(dsts) == 0 {
		return nil
	}
	if tr := tc.task.stack.Kernel.Tracer(); tr != nil {
		sp := tr.Start(nil, trace.LayerApp, tc.task.name, "send-group:"+g.name)
		prev := tc.th.SetSpan(sp)
		defer func() { tc.th.SetSpan(prev); sp.End() }()
	}
	return tc.task.stack.TP.SendDatagramMulticast(tc.th, dsts, g.box, tc.task.box, framed)
}
