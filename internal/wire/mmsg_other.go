//go:build !linux || !(amd64 || arm64)

package wire

import "net"

// Without sendmmsg/recvmmsg every conn uses the per-frame adapter.

func newMmsgWriter(net.Conn, int) frameWriter { return nil }

func newMmsgReader(net.Conn, int) frameReader { return nil }
