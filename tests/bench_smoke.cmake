# Runs BIN with ARGS (one space-separated string; "%DIR%" stands for the
# output directory DIR, emptied first). The run must exit 0. Except for the
# chaos check, it must also write DIR/cells.json, whose cells then pass the
# checks named by CHECK:
#
#   chaos       Figure 7 on a lossy fabric with retries: exiting 0 is the
#               whole assertion (no JSON);
#   churn       elastic scale-up/down with heavy transient reclamation:
#               reclamation engaged in some cell;
#   energy      diurnal park + DVFS cells: joules metered in every cell,
#               deep park engaged, and parking saved energy against
#               always-on;
#   federation  sharded cells on a lossy, duplicating, reordering fabric:
#               the run was audited, gossip landed in a multi-shard cell,
#               version ordering dropped stale gossip under chaos, and
#               every shard count scans fewer machines per heartbeat than
#               one shard;
#   packing     gang + malleable cells on a lossy fabric: the run was
#               audited, every cell packed with an efficiency in (0, 1],
#               gangs committed and malleable widths moved;
#   preemption  multi-tenant cells: every preemption issued was requeued,
#               and preemption engaged in a cell that enables it.
#
# The benches run audited, and the runner aborts on any invariant violation
# (message conservation; power legality and energy conservation; fed-bind
# conservation, accepts only on active machines and gossip version
# monotonicity; capacity conservation and gang atomicity; no lost job and
# no binding to a machine that is not active; quota-charge fractions in
# [0, 1] and every job, preempted or not, completing), so exiting 0 is the
# violation-free assertion and the checks prove the subsystem engaged.
#
#   cmake -DBIN=<exe> -DDIR=<dir> -DCHECK=energy
#         "-DARGS=--nodes=48 --jobs=600 --runs=1 --audit --json=%DIR%/cells.json"
#         -P bench_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
string(REPLACE "%DIR%" "${DIR}" ARGS "${ARGS}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}:\n${err}")
endif()
if(CHECK STREQUAL "chaos")
  message(STATUS "chaos smoke ok: auditor clean")
  return()
endif()
file(READ "${DIR}/cells.json" doc)
string(JSON ncells LENGTH "${doc}" cells)
if(ncells EQUAL 0)
  message(FATAL_ERROR "no bench cells")
endif()
math(EXPR last "${ncells} - 1")

# Sets `out` to field `key` of cell `i`.
function(cell_field out i key)
  string(JSON value GET "${doc}" cells ${i} ${key})
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "churn")
  set(reclaimed FALSE)
  foreach(i RANGE ${last})
    cell_field(reclamations ${i} reclamations)
    if(reclamations GREATER 0)
      set(reclaimed TRUE)
    endif()
  endforeach()
  if(NOT reclaimed)
    message(FATAL_ERROR "reclamation never engaged")
  endif()
elseif(CHECK STREQUAL "energy")
  set(parked 0)
  set(park_engaged FALSE)
  set(saved FALSE)
  foreach(i RANGE ${last})
    cell_field(joules ${i} joules)
    if(NOT joules GREATER 0)
      message(FATAL_ERROR "cell ${i} metered ${joules} joules")
    endif()
    cell_field(policy ${i} policy)
    if(NOT policy STREQUAL "park" AND NOT policy STREQUAL "all")
      continue()
    endif()
    math(EXPR parked "${parked} + 1")
    cell_field(parks ${i} parks)
    cell_field(sleep ${i} sleep_fraction)
    if(parks GREATER 0 AND sleep GREATER 0)
      set(park_engaged TRUE)
    endif()
    # The always-on (meter-only) cell of the same scheduler and shape.
    cell_field(scheduler ${i} scheduler)
    cell_field(shape ${i} shape)
    unset(meter)
    foreach(j RANGE ${last})
      cell_field(p ${j} policy)
      cell_field(s ${j} scheduler)
      cell_field(h ${j} shape)
      if(p STREQUAL "meter" AND s STREQUAL scheduler AND h STREQUAL shape)
        cell_field(meter ${j} joules)
      endif()
    endforeach()
    if(NOT DEFINED meter)
      message(FATAL_ERROR "no always-on cell for ${scheduler} ${shape}")
    endif()
    if(joules LESS meter)
      set(saved TRUE)
    endif()
  endforeach()
  if(parked EQUAL 0)
    message(FATAL_ERROR "no park-policy cells")
  endif()
  if(NOT park_engaged)
    message(FATAL_ERROR "deep park never engaged")
  endif()
  if(NOT saved)
    message(FATAL_ERROR "parking saved no energy vs always-on")
  endif()
elseif(CHECK STREQUAL "federation")
  string(JSON audit GET "${doc}" config audit)
  if(NOT audit)
    message(FATAL_ERROR "federation smoke must run audited")
  endif()
  set(sharded 0)
  set(applied FALSE)
  set(stale_dropped FALSE)
  set(shard_counts "")
  foreach(i RANGE ${last})
    cell_field(shards ${i} shards)
    # The last cell with a shard count sets that count's span.
    cell_field(span_${shards} ${i} heartbeat_span)
    list(APPEND shard_counts ${shards})
    if(NOT shards GREATER 1)
      continue()
    endif()
    math(EXPR sharded "${sharded} + 1")
    cell_field(gossip ${i} fed_gossip_applied)
    if(gossip GREATER 0)
      set(applied TRUE)
    endif()
    cell_field(chaos ${i} chaos)
    cell_field(dropped ${i} fed_gossip_stale_dropped)
    if(chaos AND dropped GREATER 0)
      set(stale_dropped TRUE)
    endif()
  endforeach()
  if(sharded EQUAL 0)
    message(FATAL_ERROR "no multi-shard cells")
  endif()
  if(NOT applied)
    message(FATAL_ERROR "gossip never landed")
  endif()
  if(NOT stale_dropped)
    message(FATAL_ERROR "version ordering never engaged under chaos")
  endif()
  if(NOT DEFINED span_1)
    message(FATAL_ERROR "no single-shard cell")
  endif()
  list(REMOVE_DUPLICATES shard_counts)
  foreach(s IN LISTS shard_counts)
    if(s GREATER 1 AND NOT span_${s} LESS span_1)
      message(FATAL_ERROR "sharding did not shrink the heartbeat scan "
                          "bound (${s} shards scan ${span_${s}}, one shard "
                          "scans ${span_1})")
    endif()
  endforeach()
elseif(CHECK STREQUAL "packing")
  string(JSON audit GET "${doc}" config audit)
  if(NOT audit)
    message(FATAL_ERROR "packing smoke must run audited")
  endif()
  set(gangs 0)
  set(committed FALSE)
  set(malleable 0)
  set(moved FALSE)
  foreach(i RANGE ${last})
    cell_field(efficiency ${i} packing_efficiency)
    if(NOT efficiency GREATER 0 OR efficiency GREATER 1)
      message(FATAL_ERROR "cell ${i} packing efficiency ${efficiency} "
                          "outside (0, 1]")
    endif()
    cell_field(packed ${i} packed_tasks)
    if(NOT packed GREATER 0)
      message(FATAL_ERROR "cell ${i} never packed")
    endif()
    cell_field(mix ${i} mix)
    if(mix STREQUAL "gang" OR mix STREQUAL "mixed")
      math(EXPR gangs "${gangs} + 1")
      cell_field(commits ${i} gang_commits)
      if(commits GREATER 0)
        set(committed TRUE)
      endif()
    endif()
    if(mix STREQUAL "malleable" OR mix STREQUAL "mixed")
      math(EXPR malleable "${malleable} + 1")
      cell_field(expands ${i} malleable_expands)
      cell_field(shrinks ${i} malleable_shrinks)
      if(expands GREATER 0 OR shrinks GREATER 0)
        set(moved TRUE)
      endif()
    endif()
  endforeach()
  if(gangs EQUAL 0 OR NOT committed)
    message(FATAL_ERROR "gang commits never engaged")
  endif()
  if(malleable EQUAL 0 OR NOT moved)
    message(FATAL_ERROR "malleable width never moved")
  endif()
elseif(CHECK STREQUAL "preemption")
  set(engaged FALSE)
  foreach(i RANGE ${last})
    cell_field(issued ${i} preemptions_issued)
    cell_field(requeues ${i} preemption_requeues)
    if(NOT issued EQUAL requeues)
      message(FATAL_ERROR "preemption conservation broken in cell ${i}: "
                          "${issued} issued, ${requeues} requeued")
    endif()
    cell_field(preemption ${i} preemption)
    if(preemption AND issued GREATER 0)
      set(engaged TRUE)
    endif()
  endforeach()
  if(NOT engaged)
    message(FATAL_ERROR "preemption never engaged")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK \"${CHECK}\" "
                      "(chaos|churn|energy|federation|packing|preemption)")
endif()
message(STATUS "${CHECK} smoke ok: ${ncells} audited cells")
