(* Reference SCC pass for [Reach]: an iterative Tarjan over a frozen
   snapshot's forward CSR with a [Stack] of (node, next edge) tuples and a
   list for the component stack. [Reach] runs the same visit on flat int
   stacks; test_reach checks that both number the components alike. *)

module Graph = Prospector.Graph

let sccs (fz : Graph.frozen) =
  let n = fz.Graph.f_nodes in
  let off = fz.Graph.f_fwd_off and fin = fz.Graph.f_fwd_end and adj = fz.Graph.f_fwd_dst in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let scc_stack = ref [] in
  let ncomp = ref 0 in
  let counter = ref 0 in
  let visit v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    scc_stack := v :: !scc_stack;
    on_stack.(v) <- true
  in
  let call = Stack.create () in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      Stack.push (root, off.{root}) call;
      while not (Stack.is_empty call) do
        let v, k = Stack.pop call in
        if k < fin.{v} then begin
          let w = adj.{k} in
          Stack.push (v, k + 1) call;
          if index.(w) < 0 then begin
            visit w;
            Stack.push (w, off.{w}) call
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let rec pop () =
              match !scc_stack with
              | w :: tail ->
                  scc_stack := tail;
                  on_stack.(w) <- false;
                  comp.(w) <- !ncomp;
                  if w <> v then pop ()
              | [] -> assert false
            in
            pop ();
            incr ncomp
          end;
          match Stack.top_opt call with
          | Some (u, _) -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
          | None -> ()
        end
      done
    end
  done;
  (comp, !ncomp)
