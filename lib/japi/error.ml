type t = {
  file : string;
  line : int;
  col : int;
  msg : string;
}

exception E of t

let fail ~file ~line ~col msg = raise (E { file; line; col; msg })

let show_char src i =
  let c = src.[i] in
  if c >= ' ' && c <= '~' then String.make 1 c
  else
    let d = String.get_utf_8_uchar src i in
    if c >= '\x80' && Uchar.utf_decode_is_valid d then
      String.sub src i (Uchar.utf_decode_length d)
    else Printf.sprintf "\\x%02x" (Char.code c)

let unexpected_char ~file ~line ~col src i =
  fail ~file ~line ~col (Printf.sprintf "unexpected character '%s'" (show_char src i))

let to_string t = Printf.sprintf "%s:%d:%d: %s" t.file t.line t.col t.msg

let () =
  Printexc.register_printer (function
    | E t -> Some (to_string t)
    | _ -> None)
