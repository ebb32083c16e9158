module Jtype = Javamodel.Jtype

exception Format_error of string

type error =
  | Io of string
  | Bad_magic of string
  | Bad_version of { found : int; expected : int }
  | Corrupt of string

let error_message = function
  | Io msg -> "i/o error: " ^ msg
  | Bad_magic found -> Printf.sprintf "bad magic %S — not a prospector file" found
  | Bad_version { found; expected } ->
      Printf.sprintf "format version %d, expected %d" found expected
  | Corrupt msg -> "corrupt file: " ^ msg

(* Marshal on hostile bytes raises a zoo of exceptions (Failure on a
   truncated or garbled buffer, Invalid_argument on out-of-range sizes,
   End_of_file from channel reads...); a cache loader must map all of them
   to a typed error rather than die. *)
let marshal_from_bytes b ofs =
  try Ok (Marshal.from_bytes b ofs) with
  | Failure msg -> Error (Corrupt msg)
  | Invalid_argument msg -> Error (Corrupt msg)
  | End_of_file -> Error (Corrupt "truncated")

let raise_error = function
  | Io msg -> raise (Sys_error msg)
  | e -> raise (Format_error (error_message e))

(* Every save writes a temp file and renames it over [path]. Truncating the
   target in place would pull the pages out from under a process that has
   the old file mmapped ([load_frozen]) — the serving daemon re-saves to
   the very file it warm-started from — and its next touch would die with
   SIGBUS. The rename leaves the old inode alive for as long as it is
   mapped. *)
let atomic_write path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match f oc with
  | n ->
      close_out oc;
      Sys.rename tmp path;
      n
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let read_bytes_from path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

let read_bytes_result path =
  match read_bytes_from path with
  | b -> Ok b
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Corrupt "truncated")

(* ---------- the reachability index ---------- *)

let reach_magic = "PROSPECTOR-REACH"

let reach_to_bytes r =
  let payload = Marshal.to_bytes (Reach.dump r) [] in
  Bytes.cat (Bytes.of_string reach_magic) payload

let reach_of_bytes_result b =
  let mlen = String.length reach_magic in
  if Bytes.length b < mlen then Error (Bad_magic (Bytes.to_string b))
  else if Bytes.sub_string b 0 mlen <> reach_magic then
    Error (Bad_magic (Bytes.sub_string b 0 mlen))
  else
    match marshal_from_bytes b mlen with
    | Error _ as e -> e
    | Ok (d : Reach.dump) -> (
        try Ok (Reach.undump d) with Invalid_argument msg -> Error (Corrupt msg))

let reach_of_bytes b =
  match reach_of_bytes_result b with Ok r -> r | Error e -> raise_error e

let save_reach r path =
  let b = reach_to_bytes r in
  atomic_write path (fun oc ->
      output_bytes oc b;
      Bytes.length b)

let load_reach_result path =
  match read_bytes_result path with
  | Error _ as e -> e
  | Ok b -> reach_of_bytes_result b

let load_reach path =
  match load_reach_result path with Ok r -> r | Error e -> raise_error e

(* ---------- frozen CSR snapshots (v2, mmap-ready) ---------- *)

(* Layout:

     bytes 0..15     magic "PROSPECTOR-FROZ2"
     bytes 16..23    cold-blob length (int64 LE)
     bytes 24..      Marshal'd [frozen_cold] (heap half of the snapshot)
     (zero padding to a page boundary)
     6 raw segments, each starting on a page boundary, in order:
       fwd_off   (n+1) x int64 LE
       fwd_dst   m     x int64 LE
       fwd_cost  m     x uint16 LE
       bwd_off   (n+1) x int64 LE
       bwd_src   m     x int64 LE
       bwd_cost  m     x uint16 LE

   Segment offsets are a pure function of (n, m), so the loader seeks
   straight to them. With [~mmap:true] the six segments are mapped
   read-only and shared: a warm start touches only the pages a query
   actually walks, and every server domain shares one physical copy. The
   int64 cells match Bigarray's native-int layout on 64-bit little-endian
   hosts — the only hosts we run on; the version field guards the rest. *)

let frozen_magic = "PROSPECTOR-FROZ2"

let frozen_version = 2

let page = 4096

let align_page x = (x + page - 1) / page * page

type frozen_cold = {
  fc_version : int;
  fc_generation : int;
  fc_nodes : int;
  fc_edges : int;
  fc_fwd_wcost : int array;
  fc_bwd_wcost : int array;
  fc_fwd_elems : Elem.t array;  (* aligned with the fwd_dst segment *)
  fc_types : Jtype.t array;
  fc_origins : string option array;
  fc_ids : (string * int) array;
  fc_void : int option;
}

(* (start, byte length) of each segment, given the cold blob's extent. *)
let segment_layout ~cold_end ~n ~m =
  let off_bytes = (n + 1) * 8 in
  let id_bytes = m * 8 in
  let cost_bytes = m * 2 in
  let fwd_off = align_page cold_end in
  let fwd_dst = align_page (fwd_off + off_bytes) in
  let fwd_cost = align_page (fwd_dst + id_bytes) in
  let bwd_off = align_page (fwd_cost + cost_bytes) in
  let bwd_src = align_page (bwd_off + off_bytes) in
  let bwd_cost = align_page (bwd_src + id_bytes) in
  let total = align_page (bwd_cost + cost_bytes) in
  ( [|
      (fwd_off, off_bytes);
      (fwd_dst, id_bytes);
      (fwd_cost, cost_bytes);
      (bwd_off, off_bytes);
      (bwd_src, id_bytes);
      (bwd_cost, cost_bytes);
    |],
    total )

let int_seg_bytes (a : Graph.int_array1) =
  let len = Bigarray.Array1.dim a in
  let b = Bytes.create (len * 8) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (i * 8) (Int64.of_int a.{i})
  done;
  b

let cost_seg_bytes (a : Graph.cost_array1) =
  let len = Bigarray.Array1.dim a in
  let b = Bytes.create (len * 2) in
  for i = 0 to len - 1 do
    Bytes.set_uint16_le b (i * 2) a.{i}
  done;
  b

let save_frozen (fz : Graph.frozen) path =
  (* the format stores dense rows with no slack; patched snapshots (tail
     appends, dead regions) are compacted first *)
  let fz = if Graph.is_compact fz then fz else Graph.compact ~slack:0 fz in
  let n = fz.Graph.f_nodes and m = fz.Graph.f_edges in
  let cold =
    {
      fc_version = frozen_version;
      fc_generation = fz.Graph.f_generation;
      fc_nodes = n;
      fc_edges = m;
      fc_fwd_wcost = fz.Graph.f_fwd_wcost;
      fc_bwd_wcost = fz.Graph.f_bwd_wcost;
      fc_fwd_elems = Array.map (fun e -> e.Graph.elem) fz.Graph.f_fwd_edge;
      fc_types = fz.Graph.f_types;
      fc_origins = fz.Graph.f_origins;
      fc_ids = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fz.Graph.f_ids []
               |> List.sort compare |> Array.of_list;
      fc_void = fz.Graph.f_void;
    }
  in
  let blob = Marshal.to_bytes cold [] in
  let cold_end = 24 + Bytes.length blob in
  let segs, total = segment_layout ~cold_end ~n ~m in
  atomic_write path (fun oc ->
      let pos = ref 0 in
      let emit b =
        output_bytes oc b;
        pos := !pos + Bytes.length b
      in
      let pad_to target =
        if target > !pos then emit (Bytes.make (target - !pos) '\000')
      in
      emit (Bytes.of_string frozen_magic);
      let len8 = Bytes.create 8 in
      Bytes.set_int64_le len8 0 (Int64.of_int (Bytes.length blob));
      emit len8;
      emit blob;
      let payloads =
        [|
          int_seg_bytes fz.Graph.f_fwd_off;
          int_seg_bytes fz.Graph.f_fwd_dst;
          cost_seg_bytes fz.Graph.f_fwd_cost;
          int_seg_bytes fz.Graph.f_bwd_off;
          int_seg_bytes fz.Graph.f_bwd_src;
          cost_seg_bytes fz.Graph.f_bwd_cost;
        |]
      in
      Array.iteri
        (fun i b ->
          let start, blen = segs.(i) in
          assert (Bytes.length b = blen);
          pad_to start;
          emit b)
        payloads;
      pad_to total;
      total)

let map_int_seg fd ~pos ~len =
  if len = 0 then Graph.ba_int 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout
         false [| len |])

let map_cost_seg fd ~pos ~len =
  if len = 0 then Graph.ba_cost 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int16_unsigned
         Bigarray.c_layout false [| len |])

let read_int_seg ic ~pos ~len =
  seek_in ic pos;
  let b = Bytes.create (len * 8) in
  really_input ic b 0 (len * 8);
  let a = Graph.ba_int len in
  for i = 0 to len - 1 do
    a.{i} <- Int64.to_int (Bytes.get_int64_le b (i * 8))
  done;
  a

let read_cost_seg ic ~pos ~len =
  seek_in ic pos;
  let b = Bytes.create (len * 2) in
  really_input ic b 0 (len * 2);
  let a = Graph.ba_cost len in
  for i = 0 to len - 1 do
    a.{i} <- Bytes.get_uint16_le b (i * 2)
  done;
  a

let frozen_of_parts ~(cold : frozen_cold) ~fwd_off ~fwd_dst ~fwd_cost ~bwd_off
    ~bwd_src ~bwd_cost =
  let n = cold.fc_nodes and m = cold.fc_edges in
  if
    Array.length cold.fc_fwd_elems <> m
    || Array.length cold.fc_types <> n
    || Array.length cold.fc_origins <> n
    || Array.length cold.fc_fwd_wcost <> m
    || Array.length cold.fc_bwd_wcost <> m
  then Error (Corrupt "cold/hot section sizes disagree")
  else if fwd_off.{0} <> 0 || fwd_off.{n} <> m || bwd_off.{0} <> 0
          || bwd_off.{n} <> m
  then Error (Corrupt "offset segments do not describe the edge count")
  else begin
    (* Edge records carry their own source node; recover it from the row
       structure (the file stores it once, implicitly). *)
    let src_of = Array.make m 0 in
    let bad = ref false in
    for u = 0 to n - 1 do
      let lo = fwd_off.{u} and hi = fwd_off.{u + 1} in
      if lo > hi || lo < 0 || hi > m then bad := true
      else
        for k = lo to hi - 1 do
          src_of.(k) <- u
        done
    done;
    for k = 0 to m - 1 do
      if fwd_dst.{k} < 0 || fwd_dst.{k} >= n then bad := true
    done;
    if !bad then Error (Corrupt "adjacency rows out of range")
    else begin
      let fwd_edge =
        Array.init m (fun k ->
            {
              Graph.elem = cold.fc_fwd_elems.(k);
              src = src_of.(k);
              dst = fwd_dst.{k};
            })
      in
      let ids = Hashtbl.create (max 16 (Array.length cold.fc_ids)) in
      Array.iter (fun (k, v) -> Hashtbl.replace ids k v) cold.fc_ids;
      let plain =
        Array.for_all (fun o -> o = None) cold.fc_origins
        && Array.for_all (fun e -> not (Elem.is_downcast e)) cold.fc_fwd_elems
      in
      Ok
        {
          Graph.f_generation = cold.fc_generation;
          f_nodes = n;
          f_edges = m;
          f_fwd_off = fwd_off;
          f_fwd_end = Bigarray.Array1.sub fwd_off 1 n;
          f_fwd_dst = fwd_dst;
          f_fwd_cost = fwd_cost;
          f_fwd_wcost = cold.fc_fwd_wcost;
          f_fwd_edge = fwd_edge;
          f_bwd_off = bwd_off;
          f_bwd_end = Bigarray.Array1.sub bwd_off 1 n;
          f_bwd_src = bwd_src;
          f_bwd_cost = bwd_cost;
          f_bwd_wcost = cold.fc_bwd_wcost;
          (* zero slack: a mapped snapshot's lanes are file-backed, so the
             first patch must always take the copying path *)
          f_fwd_used = m;
          f_bwd_used = m;
          f_plain = plain;
          f_tail = Atomic.make false;
          f_types = cold.fc_types;
          f_origins = cold.fc_origins;
          f_ids = ids;
          f_void = cold.fc_void;
        }
    end
  end

let load_frozen ?(mmap = true) path =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let file_len = in_channel_length ic in
          let mlen = String.length frozen_magic in
          if file_len < mlen + 8 then Error (Corrupt "truncated header")
          else begin
            let head = Bytes.create (mlen + 8) in
            really_input ic head 0 (mlen + 8);
            if Bytes.sub_string head 0 mlen <> frozen_magic then
              Error (Bad_magic (Bytes.sub_string head 0 (min mlen file_len)))
            else begin
              let blob_len = Int64.to_int (Bytes.get_int64_le head mlen) in
              if blob_len < 0 || mlen + 8 + blob_len > file_len then
                Error (Corrupt "truncated cold section")
              else begin
                let blob = Bytes.create blob_len in
                really_input ic blob 0 blob_len;
                let* (cold : frozen_cold) = marshal_from_bytes blob 0 in
                if cold.fc_version <> frozen_version then
                  Error
                    (Bad_version
                       { found = cold.fc_version; expected = frozen_version })
                else if cold.fc_nodes < 0 || cold.fc_edges < 0 then
                  Error (Corrupt "negative node or edge count")
                else begin
                  let n = cold.fc_nodes and m = cold.fc_edges in
                  let segs, total =
                    segment_layout ~cold_end:(mlen + 8 + blob_len) ~n ~m
                  in
                  (* Never map past EOF: a truncated file must be a typed
                     error here, not a SIGBUS on first page touch. *)
                  if file_len < total then
                    Error (Corrupt "truncated hot segments")
                  else begin
                    let seg i = segs.(i) in
                    let* hot =
                      if mmap then begin
                        match
                          let fd =
                            Unix.openfile path [ Unix.O_RDONLY ] 0
                          in
                          Fun.protect
                            ~finally:(fun () -> try Unix.close fd with _ -> ())
                            (fun () ->
                              let io i = map_int_seg fd ~pos:(fst (seg i)) in
                              let co i = map_cost_seg fd ~pos:(fst (seg i)) in
                              ( io 0 ~len:(n + 1),
                                io 1 ~len:m,
                                co 2 ~len:m,
                                io 3 ~len:(n + 1),
                                io 4 ~len:m,
                                co 5 ~len:m ))
                        with
                        | hot -> Ok hot
                        | exception Unix.Unix_error (e, _, _) ->
                            Error (Io (Unix.error_message e))
                      end
                      else
                        match
                          let io i = read_int_seg ic ~pos:(fst (seg i)) in
                          let co i = read_cost_seg ic ~pos:(fst (seg i)) in
                          ( io 0 ~len:(n + 1),
                            io 1 ~len:m,
                            co 2 ~len:m,
                            io 3 ~len:(n + 1),
                            io 4 ~len:m,
                            co 5 ~len:m )
                        with
                        | hot -> Ok hot
                        | exception End_of_file ->
                            Error (Corrupt "truncated hot segments")
                    in
                    let fwd_off, fwd_dst, fwd_cost, bwd_off, bwd_src, bwd_cost =
                      hot
                    in
                    frozen_of_parts ~cold ~fwd_off ~fwd_dst ~fwd_cost ~bwd_off
                      ~bwd_src ~bwd_cost
                  end
                end
              end
            end
          end)
