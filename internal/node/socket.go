package node

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
)

// Berkeley-style sockets over the socket CAB-node interface (paper §6.2.3:
// "A second approach is to provide a Berkeley UNIX socket interface to
// Nectar... This approach allows existing source code to be used on Nectar
// with minimal modification"). Connections are built on the CAB's reliable
// byte stream; the node pays system-call and copy costs on every operation,
// while transport processing stays off-loaded on the CAB.
//
// The API mirrors the classic shape: Listen/Accept on the server, Dial on
// the client, Send/Recv/Close on a connection.

// socket-layer message kinds (first payload byte inside the node framing).
const (
	sockSYN    = 1
	sockSYNACK = 2
	sockDATA   = 3
	sockFIN    = 4
)

// Listener accepts connections at a well-known box.
type Listener struct {
	n       *Node
	box     uint16
	backlog *sim.Queue[*Conn]
}

// Conn is one established socket connection.
type Conn struct {
	n        *Node
	localBox uint16
	peer     int
	peerBox  uint16
	closed   bool
	peerEOF  bool
	// pending holds bytes from a partially consumed data message.
	pending []byte
}

// nextSocketBox allocates a connection box on this node.
func (n *Node) nextSocketBox() uint16 {
	n.sockBox++
	return 50000 + n.sockBox
}

// Listen opens a well-known box for incoming connections.
func (n *Node) Listen(box uint16) *Listener {
	n.OpenBox(box, ModeSocket, 1<<20)
	l := &Listener{n: n, box: box, backlog: sim.NewQueue[*Conn](n.eng)}
	// The accept daemon turns SYNs into established connections.
	n.GoDaemon(fmt.Sprintf("accept%d", box), func(p *sim.Proc) {
		for {
			m := n.RecvSocket(p, box)
			if len(m.Data) < 3 || m.Data[0] != sockSYN {
				continue
			}
			peerBox := binary.BigEndian.Uint16(m.Data[1:])
			localBox := n.nextSocketBox()
			n.OpenBox(localBox, ModeSocket, 1<<20)
			// SYNACK carries our connection box.
			resp := make([]byte, 3)
			resp[0] = sockSYNACK
			binary.BigEndian.PutUint16(resp[1:], localBox)
			n.SendSocket(p, m.Src, peerBox, resp)
			l.backlog.Put(&Conn{
				n: n, localBox: localBox, peer: m.Src, peerBox: peerBox,
			})
		}
	})
	return l
}

// Accept blocks until a connection arrives.
func (l *Listener) Accept(p *sim.Proc) *Conn {
	return l.backlog.Get(p)
}

// Dial connects to a listener at (dstCAB, box).
func (n *Node) Dial(p *sim.Proc, dstCAB int, box uint16) (*Conn, error) {
	localBox := n.nextSocketBox()
	n.OpenBox(localBox, ModeSocket, 1<<20)
	syn := make([]byte, 3)
	syn[0] = sockSYN
	binary.BigEndian.PutUint16(syn[1:], localBox)
	n.SendSocket(p, dstCAB, box, syn)
	m := n.RecvSocket(p, localBox)
	if len(m.Data) < 3 || m.Data[0] != sockSYNACK {
		return nil, fmt.Errorf("node: bad handshake from CAB %d", dstCAB)
	}
	return &Conn{
		n: n, localBox: localBox, peer: dstCAB,
		peerBox: binary.BigEndian.Uint16(m.Data[1:]),
	}, nil
}

// Send writes data on the connection (reliable, ordered: it rides the
// CAB byte stream).
func (c *Conn) Send(p *sim.Proc, data []byte) error {
	if c.closed {
		return fmt.Errorf("node: send on closed connection")
	}
	wire := make([]byte, 1+len(data))
	wire[0] = sockDATA
	copy(wire[1:], data)
	c.n.SendSocket(p, c.peer, c.peerBox, wire)
	return nil
}

// Recv reads the next message from the connection. It returns nil at EOF
// (the peer closed).
func (c *Conn) Recv(p *sim.Proc) []byte {
	if c.peerEOF {
		return nil
	}
	m := c.n.RecvSocket(p, c.localBox)
	if len(m.Data) == 0 || m.Data[0] == sockFIN {
		c.peerEOF = true
		return nil
	}
	return m.Data[1:]
}

// Close half-closes the connection: the peer's next Recv returns EOF.
func (c *Conn) Close(p *sim.Proc) {
	if c.closed {
		return
	}
	c.closed = true
	c.n.SendSocket(p, c.peer, c.peerBox, []byte{sockFIN})
}
