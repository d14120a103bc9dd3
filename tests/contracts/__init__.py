"""Bit-identity contracts between engines and the committed outputs, one
module per contract; each pins its full-size workload exactly."""
