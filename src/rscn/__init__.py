"""Incrementally grown reservoir networks with online readout adaptation."""
