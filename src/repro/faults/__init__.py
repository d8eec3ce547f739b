"""Byzantine behaviour injection.

Section V of the paper enumerates the attacks possible in the serverless-edge
architecture.  Each attack is expressed here as a *behaviour* object attached
to a shim node or an executor; honest components simply have no behaviour
attached.  The protocol code consults these hooks at its decision points, so
the attack surface is explicit and testable.
"""
