package wire

const (
	sysSendmmsg = 269
	sysRecvmmsg = 243
)
