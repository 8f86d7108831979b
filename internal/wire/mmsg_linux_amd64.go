package wire

// The stdlib syscall package predates sendmmsg on amd64, so both numbers
// are spelled out here.
const (
	sysSendmmsg = 307
	sysRecvmmsg = 299
)
