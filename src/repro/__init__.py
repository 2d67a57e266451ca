"""repro -- a simulated SOC design-service flow.

Reproduction of "Integration, Verification and Layout of a Complex
Multimedia SOC" (Chen, Lin & Lin, DATE 2005): a Python model of the
complete design-service lifecycle of the paper's digital-still-camera
controller, from IP integration through verification, DFT, physical
implementation, packaging, and mass-production yield ramp.

Subpackages
-----------
netlist        gate-level netlist IR, cell library, generators
lint           static design-rule analysis: structural, CDC, X, scan, SoC map
sim            four-value logic simulation, vendor dialects
verification   testbenches, regression running, cross-simulator compare
sat            CDCL SAT solver and CNF builder under ATPG, equivalence, BMC
formal         equivalence checking and bounded model checking
jpeg           baseline JPEG codec + hardware pipeline model
mbist          memory BIST: fault models, March tests, BIST generator
dft            scan insertion, fault simulation, ATPG
sta            static timing analysis
physical       floorplan, placement, routing
package        TFBGA package model and pin assignment
eco            engineering change orders and design versioning
ip             IP catalogue and integration quality model
manufacturing  yield, wafer, probe, ramp, die cost
reliability    qualification stress tests
fa             failure analysis workflow
project        project/schedule simulation
dsc            digital still camera reference application
core           the end-to-end design-service flow
perf           stage timers, throughput counters, process fan-out
"""

__version__ = "1.0.0"
